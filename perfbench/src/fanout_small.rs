//! `fanout-small`: `mrw fanout --workers 2 --threads 1` with many
//! chunks of a clique(16), k = 8 cover spec (≈53 steps per trial, scalar
//! path). Fixed costs dominate: per trial seed derivation, observer
//! reset and moments; per chunk process spawn, graph rebuild, the
//! child's JSON render and the parent's parse plus `Report::merge`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use mrw_core::query::{Budget, GraphSpec, Query, QuerySpec, Session};
use mrw_par::SeedSequence;

use crate::stats::{median, report_steps};
use crate::trace::Tracer;
use crate::{Ctx, Tally};

/// Trials of the spec.
pub const TRIALS: usize = 4096;
/// Trials per dispatched chunk: `TRIALS / CHUNK` chunks per fanout.
pub const CHUNK: usize = 256;
/// Worker processes.
pub const WORKERS: usize = 2;
/// `mrw shard` runs whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 15;

pub fn chunks() -> usize {
    TRIALS.div_ceil(CHUNK)
}

pub fn spec(seed: u64) -> QuerySpec {
    QuerySpec {
        graph: GraphSpec::new("clique", 16),
        query: Query::Cover {
            k: 8,
            starts: vec![0],
        },
        budget: Budget {
            trials: TRIALS,
            seed: SeedSequence::new(seed).child(2).seed_for(0) >> 1,
            ..Budget::default()
        },
    }
}

/// An `mrw` command whose scratch files stay inside the run directory.
pub fn mrw(ctx: &Ctx) -> Command {
    let mut cmd = Command::new(&ctx.mrw);
    cmd.env("MRW_TMPDIR", &ctx.tmp)
        .env("TMPDIR", &ctx.tmp)
        .stdin(Stdio::null());
    cmd
}

/// Runs `cmd` to completion: `(seconds, success, stdout, stderr)`.
pub fn timed(cmd: &mut Command) -> Result<(f64, bool, Vec<u8>, String), String> {
    let t = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawn mrw: {e}"))?;
    Ok((
        t.elapsed().as_secs_f64(),
        out.status.success(),
        out.stdout,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// The retry count from fanout's summary line
/// (`mrw fanout: N trials across W worker(s), R retries used`).
pub fn retries(stderr: &str) -> Option<u64> {
    let line = stderr.lines().find(|l| l.starts_with("mrw fanout:"))?;
    let before = line.rsplit_once(" retr")?.0;
    before.rsplit(' ').next()?.parse().ok()
}

fn fanout_cmd(ctx: &Ctx, spec_path: &Path) -> Command {
    let mut cmd = mrw(ctx);
    cmd.arg("fanout")
        .arg(spec_path)
        .args(["--workers", &WORKERS.to_string()])
        .args(["--threads", "1"])
        .args(["--chunk", &CHUNK.to_string()])
        .arg("--json");
    cmd
}

/// One `mrw fanout` invocation in a `fanout.run` span:
/// `(seconds, success, stdout, stderr)`.
pub fn invoke(
    ctx: &Ctx,
    spec_path: &Path,
    tracer: &Tracer,
    req: u64,
) -> Result<(f64, bool, Vec<u8>, String), String> {
    tracer.span("fanout.run", None, req, || {
        timed(&mut fanout_cmd(ctx, spec_path))
    })
}

pub struct Measured {
    pub spec: QuerySpec,
    pub spec_path: PathBuf,
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub steps: u128,
    pub retries: u64,
    pub oracle_json: String,
    /// In-process `Session::run` wall at 2 threads, seconds.
    pub inproc_s: f64,
    pub rss_kib: u64,
    /// Whether the flipped-byte self-test was caught.
    pub selftest_ok: bool,
}

/// Peak resident set (KiB) of the largest process in one untimed
/// fanout's tree — the `mrw fanout` parent or one of its `mrw shard`
/// children — polled from `/proc` every 200 µs until the parent exits.
fn tree_peak_rss_kib(ctx: &Ctx, spec_path: &Path) -> Result<u64, String> {
    let mut child = fanout_cmd(ctx, spec_path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn mrw fanout: {e}"))?;
    let root = child.id().to_string();
    let mut peak = 0;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            if !status.success() {
                return Err("mrw fanout failed during the RSS probe".into());
            }
            return Ok(peak);
        }
        for pid in std::iter::once(root.clone()).chain(crate::host::children(&root)) {
            peak = peak.max(crate::host::mrw_hwm_kib(&pid).unwrap_or(0));
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Set-up, the oracle, then fanout invocations until `seconds` and
/// `min_requests` are reached (or exactly `fixed` invocations).
pub fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    tally: &mut Tally,
    fixed: Option<usize>,
) -> Result<Measured, String> {
    let spec = spec(ctx.seed);
    let spec_path = ctx.tmp.join("fanout-spec.json");
    std::fs::write(&spec_path, spec.to_json()).map_err(|e| format!("write spec: {e}"))?;
    let g = spec.graph.resolve()?;

    // The oracle: the in-process run of the same spec, untimed except
    // for the overhead baseline.
    let mut inproc = Vec::new();
    let mut oracle = None;
    for _ in 0..5 {
        let t = Instant::now();
        let r = Session::new(Budget {
            threads: 2,
            ..spec.budget.clone()
        })
        .run(&g, &spec.query);
        inproc.push(t.elapsed().as_secs_f64());
        oracle = Some(r);
    }
    let oracle = oracle.expect("ran");
    let oracle_json = oracle.to_json();
    let one_trial = Session::new(spec.budget.clone())
        .with_range(0..1)
        .run(&g, &spec.query)
        .to_json();

    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPEATS {
        let mut cmd = mrw(ctx);
        cmd.arg("shard")
            .arg(&spec_path)
            .args(["--range", "0..1", "--json"]);
        let (secs, ok, stdout, _) =
            tracer.span("fanout.shard_setup", None, i as u64, || timed(&mut cmd))?;
        setup_s.push(secs);
        tally.check(ok && stdout == one_trial.as_bytes(), || {
            "mrw shard --range 0..1 differs from the in-process slice".into()
        });
    }

    let mut latencies_ms = Vec::new();
    let mut retries_used = 0u64;
    let mut sample = Vec::new();
    let t0 = Instant::now();
    loop {
        let done = match fixed {
            Some(n) => latencies_ms.len() >= n,
            None => {
                t0.elapsed().as_secs_f64() >= ctx.seconds && latencies_ms.len() >= ctx.min_requests
            }
        };
        if done {
            break;
        }
        let req = latencies_ms.len() as u64;
        let (secs, ok, stdout, stderr) = invoke(ctx, &spec_path, tracer, req)?;
        latencies_ms.push(secs * 1e3);
        let r = retries(&stderr);
        retries_used += r.unwrap_or(0);
        check_invocation(tally, req, ok && r.is_some(), &stdout, &oracle_json);
        if sample.is_empty() {
            sample = stdout;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let steps = report_steps(&oracle) * latencies_ms.len() as u128;
    let rss_kib = tree_peak_rss_kib(ctx, &spec_path)?;
    // The self-test: the first invocation's stdout with one byte
    // flipped must fail the same check.
    let mut scratch = Tally::default();
    check_invocation(
        &mut scratch,
        0,
        true,
        &crate::flipped(&sample),
        &oracle_json,
    );
    Ok(Measured {
        spec,
        spec_path,
        setup_s,
        latencies_ms,
        wall_s,
        steps,
        retries: retries_used,
        oracle_json,
        inproc_s: median(&inproc),
        rss_kib,
        selftest_ok: scratch.failed == 1,
    })
}

/// The oracle for one `mrw fanout` invocation: it exited cleanly with
/// its summary line (`ok`) and printed the in-process report's bytes.
pub fn check_invocation(tally: &mut Tally, req: u64, ok: bool, stdout: &[u8], oracle_json: &str) {
    let same = stdout == oracle_json.as_bytes();
    tally.check(ok && same, || {
        format!(
            "fanout invocation {req}: exit ok {ok}, output {} the in-process report",
            if same { "equals" } else { "differs from" }
        )
    });
}

/// The untraced run's end-to-end metrics.
pub fn e2e(ctx: &Ctx) -> Result<crate::Outcome, String> {
    let tracer = Tracer::new(false);
    let mut out = crate::Outcome::default();
    let m = measure(ctx, &tracer, &mut out.tally, None)?;
    out.end_to_end(&m.setup_s, m.steps, m.wall_s, &m.latencies_ms, m.rss_kib);
    out.notes.push(format!(
        "fanout: {} chunks of {} trials, {} workers; {} retries over {} invocations; in-process Session::run {:.3} ms",
        chunks(),
        CHUNK,
        WORKERS,
        m.retries,
        m.latencies_ms.len(),
        m.inproc_s * 1e3
    ));
    out.reports.push_str(&m.oracle_json);
    out.selftest_ok = m.selftest_ok;
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_flipped_fanout_output_fails_the_invocation_check() {
        let oracle = "{\"report\": 1}\n";
        let mut tally = crate::Tally::default();
        super::check_invocation(&mut tally, 0, true, oracle.as_bytes(), oracle);
        assert_eq!(tally.failed, 0);
        let bad = crate::flipped(oracle.as_bytes());
        super::check_invocation(&mut tally, 1, true, &bad, oracle);
        super::check_invocation(&mut tally, 2, false, oracle.as_bytes(), oracle);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn parses_the_retry_count() {
        assert_eq!(
            super::retries("mrw fanout: 4096 trials across 2 worker(s), 0 retries used\n"),
            Some(0)
        );
        assert_eq!(
            super::retries("x\nmrw fanout: 64 trials across 1 worker(s), 1 retry used"),
            Some(1)
        );
        assert_eq!(super::retries("error: boom"), None);
    }
}
