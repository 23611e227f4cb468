//! `mrw fanout` / `mrw resume` — the in-tree multi-process scale-out
//! driver.
//!
//! PR 4 made any shard partition of a trial budget merge byte-identically
//! into the single-process run; PR 5 ran the shards in-tree. This module
//! is the fault-tolerant generation of that driver: it cuts the trial
//! space into small chunks pulled by idle workers through the
//! work-stealing, deadline-aware scheduler in [`crate::dispatch`], and
//! emits one merged report **byte-identical to `mrw run`** — no matter
//! which worker ran which chunk, in what order, or how many times a
//! chunk had to be retried.
//!
//! ## One execution shape: the budget's wave schedule
//!
//! The driver replays the budget's schedule ([`Trials::waves`]) across
//! the pool, evaluating the rule exactly where the in-process loop
//! ([`Trials::replay`]) does: on index-ordered prefix moments at each
//! window end. A fixed budget is the one window `[0, N)`, cut into
//! `--shards` chunks (default `4 × workers`, so the pool can steal around
//! stragglers) or `--chunk`-sized ones, gathered, and folded with
//! [`Report::merge`]. An adaptive budget's windows are each cut into one
//! chunk per worker, and a group drops out of later waves the moment its
//! rule fires (`mrw shard --groups`). The schedule is a pure function of
//! the budget, so the driver pipelines it: the next wave's chunks are
//! enqueued before the current wave's stragglers finish, under the last
//! known active-group set — always a superset of the true one, and the
//! prefix fold only accumulates still-active groups, so the optimistic
//! extra trials are ignored and the assembled report (per-group consumed
//! counts included) stays byte-identical to the unsharded run. Every
//! completed window must merge to exactly its `[lo, hi)` coverage, or the
//! run fails instead of emitting a miscounted report.
//!
//! ## Failure handling, checkpoints, and resume
//!
//! Worker death, hangs (deadline-SIGKILLed), and corrupt output are all
//! retryable faults with exponential backoff (see `dispatch.rs`). When a
//! chunk exhausts its retry budget the driver does not discard the
//! completed work: it freezes every finished chunk into a canonical-JSON
//! [`Checkpoint`] and either aborts with the still-missing ranges and the
//! exact `mrw resume` command that would continue (default), or — with
//! `--partial-ok` — prints the merged partial report and exits cleanly.
//! `mrw resume checkpoint.json` replays the wave schedule, dispatches
//! only the still-missing sub-ranges, and completes byte-identically to
//! an unfailed `mrw run`.

use std::ops::Range;
use std::process::Command;
use std::time::Duration;

use mrw_core::query::{Checkpoint, Coverage, GraphInfo, ShardPlan};
use mrw_core::{AnyGraph, Group, QuerySpec, Report};
use mrw_stats::Trials;

use crate::args::Options;
use crate::dispatch::{merge_all, split_chunks, Chunk, DispatchConfig, Dispatcher, Scratch};

/// Default per-chunk retry budget for failed, hung, or corrupt workers.
pub const DEFAULT_RETRIES: usize = 2;

/// Default deadline floor (`--deadline-ms`): no in-flight chunk is killed
/// as hung before running at least this long, however fast its peers are.
pub const DEFAULT_DEADLINE_MS: u64 = 1000;

/// What the worker-side fault hook tells `mrw shard` to do after the
/// side effects (killing, hanging, sleeping) have been applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No output-corrupting fault: emit the report normally.
    Clean,
    /// `MRW_FAULT_CORRUPT_RANGE_START` matched: the worker must emit
    /// truncated JSON so the driver's output validation path is
    /// exercised.
    CorruptOutput,
}

/// Consumes the `MRW_FAULT_ONCE` latch if one is configured: returns
/// whether the fault should fire. The latch file is created atomically
/// (`create_new`), so exactly one worker across every attempt fires the
/// fault and the fanout retry recovers; without the latch every attempt
/// faults, which is how the retry-exhaustion paths are tested.
fn fault_latch_open() -> bool {
    match std::env::var("MRW_FAULT_ONCE") {
        Err(_) => true,
        Ok(latch) => std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&latch)
            .is_ok(),
    }
}

/// Whether a range-targeted fault variable names this worker's range.
fn fault_targets(var: &str, range: &Range<usize>) -> bool {
    std::env::var(var).is_ok_and(|v| v == range.start.to_string())
}

/// Test/CI fault injection for the worker side, called by `mrw shard`
/// before it starts its trials. Each hook models one real failure class
/// the dispatcher must survive:
///
/// * `MRW_FAULT_KILL_RANGE_START=<start>` — the worker SIGKILLs itself,
///   the same abrupt death as an OOM kill or preemption (no exit code,
///   no output).
/// * `MRW_FAULT_HANG_RANGE_START=<start>` — the worker sleeps forever,
///   like a wedged NFS mount or a livelocked host; only the driver's
///   deadline policy can clear it.
/// * `MRW_FAULT_CORRUPT_RANGE_START=<start>` — the worker emits
///   truncated JSON (a torn write / full disk), which output validation
///   must turn into a retryable fault.
/// * `MRW_FAULT_SLOW_MS=<ms>` — the worker stalls that long before its
///   trials (a straggler); untargeted, so with `MRW_FAULT_ONCE` exactly
///   one chunk straggles while the pool steals the rest.
///
/// All four honor the `MRW_FAULT_ONCE=<latch-path>` latch (see
/// [`fault_latch_open`]).
pub fn fault_hook(range: &Range<usize>) -> FaultAction {
    if let Ok(ms) = std::env::var("MRW_FAULT_SLOW_MS") {
        if let Ok(ms) = ms.parse::<u64>() {
            if fault_latch_open() {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }
    if fault_targets("MRW_FAULT_KILL_RANGE_START", range) && fault_latch_open() {
        let _ = Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // `kill` missing from the box: still die abruptly, without
        // unwinding.
        std::process::abort();
    }
    if fault_targets("MRW_FAULT_HANG_RANGE_START", range) && fault_latch_open() {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    if fault_targets("MRW_FAULT_CORRUPT_RANGE_START", range) && fault_latch_open() {
        return FaultAction::CorruptOutput;
    }
    FaultAction::Clean
}

/// A run stopped by retry exhaustion: what stopped it, what finished
/// anyway (merged per wave window, ready for a [`Checkpoint`]), and the
/// dispatched-but-incomplete trial ranges.
struct Interrupted {
    error: String,
    waves: Vec<Report>,
    missing: Vec<(u64, u64)>,
}

/// What a drive produced, plus the scheduler's bookkeeping for the
/// summary line and the checkpoint's failure log.
struct DriveResult {
    outcome: Result<Report, Interrupted>,
    failures: Vec<String>,
    retries_used: usize,
}

/// The still-missing chunk ranges of one wave window, given whatever a
/// checkpoint already covers of it.
fn window_gaps(window: &Range<usize>, saved: Option<&Report>) -> Vec<Range<usize>> {
    match saved {
        None => vec![window.clone()],
        Some(r) => r
            .coverage
            .missing_within(window.start as u64, window.end as u64)
            .into_iter()
            .map(|(lo, hi)| lo as usize..hi as usize)
            .collect(),
    }
}

/// Runs a spec across the worker pool, fresh (`saved` empty) or resumed
/// from a checkpoint's per-wave partial reports. All scheduling goes
/// through one [`Dispatcher`] and one wave driver ([`drive_waves`]).
fn drive(
    spec: &QuerySpec,
    g: &AnyGraph,
    saved: &[Report],
    opts: &Options,
) -> Result<DriveResult, String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let scratch = Scratch::new()?;
    // The children must see the *resolved* spec (CLI overrides applied —
    // or, on resume, the checkpoint's frozen spec), so the driver ships
    // its own spec file rather than the user's.
    let spec_path = scratch.path("spec.json");
    std::fs::write(&spec_path, spec.to_json())
        .map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let cfg = DispatchConfig {
        workers,
        retries: opts.retries.unwrap_or(DEFAULT_RETRIES),
        threads: opts.threads,
        deadline_floor: Duration::from_millis(opts.deadline_ms.unwrap_or(DEFAULT_DEADLINE_MS)),
        jitter_seed: spec.budget.seed,
    };
    let mut pool = Dispatcher::new(spec_path, &scratch, cfg)?;
    let outcome = drive_waves(spec, g, saved, opts, workers, &mut pool)?;
    Ok(DriveResult {
        outcome,
        failures: std::mem::take(&mut pool.failures),
        retries_used: pool.retries_used,
    })
}

/// The wave driver: the budget's schedule ([`Trials::waves`]) replayed
/// window by window across the pool, pipelining the (purely
/// schedulable) next window behind the current one. A fixed budget is
/// the one-window schedule. See the module docs for why the optimistic
/// active-set superset preserves byte-identity.
fn drive_waves(
    spec: &QuerySpec,
    g: &AnyGraph,
    saved: &[Report],
    opts: &Options,
    workers: usize,
    pool: &mut Dispatcher,
) -> Result<Result<Report, Interrupted>, String> {
    let trials = spec.budget.trials_budget();
    // The schedule is a pure function of the budget — no sample data
    // needed — which is what makes both pipelining and checkpoint replay
    // possible.
    let windows: Vec<Range<usize>> = trials.waves().collect();
    if windows.is_empty() {
        // `checked_graph` rejects an empty budget before any drive.
        return Err("internal: empty trial schedule".into());
    }
    // A whole fresh window splits into `pieces` ranges: `--shards`
    // (default four per worker, so idle workers have something to steal)
    // for a fixed budget's one window, one per worker for an adaptive
    // wave. Resumed gaps and `--chunk` cut chunks of at most one piece.
    let pieces = match trials {
        Trials::Fixed(_) => opts.fanout_shards.unwrap_or(workers * 4),
        Trials::Adaptive(_) => workers,
    };

    // Slot each checkpointed partial into its wave window.
    let mut saved_by: Vec<Option<Report>> = vec![None; windows.len()];
    for report in saved {
        let start = report.coverage.ranges()[0].0 as usize;
        let w = windows
            .iter()
            .position(|win| win.start <= start && start < win.end)
            .ok_or_else(|| {
                format!("checkpoint wave at trial {start} is outside the spec's wave schedule")
            })?;
        let (lo, hi) = (windows[w].start as u64, windows[w].end as u64);
        if report
            .coverage
            .ranges()
            .iter()
            .any(|&(a, b)| a < lo || b > hi)
        {
            return Err(format!(
                "checkpoint wave covering {:?} crosses the wave boundary at trial {hi}",
                report.coverage.ranges()
            ));
        }
        saved_by[w] = Some(match saved_by[w].take() {
            None => report.clone(),
            Some(prev) => Report::merge(&prev, report)?,
        });
    }

    let enqueue_window =
        |pool: &mut Dispatcher, w: usize, groups: &Option<Vec<usize>>, saved: Option<&Report>| {
            let window = &windows[w];
            for gap in window_gaps(window, saved) {
                let chunks = if opts.chunk.is_none() && gap == *window {
                    ShardPlan::split(gap, pieces)
                } else {
                    let chunk_len = opts
                        .chunk
                        .unwrap_or_else(|| window.len().div_ceil(pieces.min(window.len()).max(1)));
                    split_chunks(gap, chunk_len)
                };
                for range in chunks {
                    pool.enqueue(Chunk::new(w, range, groups.clone()));
                }
            }
        };

    // Prime the pipeline: the first two windows, unrestricted (the group
    // structure is unknown until wave 0 reports; "all groups" is the
    // superset of every later active set).
    for (w, saved) in saved_by.iter().enumerate().take(2) {
        enqueue_window(pool, w, &None, saved.as_ref());
    }

    // Driver-side replication of `Trials::replay`: same wave boundaries,
    // same rule, same prefix moments. `groups` holds each group's
    // cumulative prefix; a group that retires stops folding, so its
    // prefix is already final.
    let mut groups: Vec<Group> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut folded: Vec<Report> = Vec::new(); // complete waves, for checkpoints
    let mut w = 0;
    while w < windows.len() {
        if let Err(error) = pool.run_until_wave_done(w) {
            // The wind-down kept only windows ≤ w of this run's work;
            // later windows carry just what an earlier checkpoint saved.
            let mut waves = folded;
            for (later, saved) in saved_by.iter_mut().enumerate().skip(w) {
                let mut parts = pool.take_completed(later);
                parts.extend(saved.take());
                if !parts.is_empty() {
                    waves.push(merge_all(&parts)?);
                }
            }
            return Ok(Err(Interrupted {
                error,
                waves,
                missing: pool.missing_ranges(),
            }));
        }
        let mut parts = pool.take_completed(w);
        parts.extend(saved_by[w].take());
        let wave_report = merge_all(&parts)?;
        let (lo, hi) = (windows[w].start as u64, windows[w].end as u64);
        if wave_report.coverage.ranges() != [(lo, hi)] {
            return Err(format!(
                "merged wave is incomplete: missing trial ranges {:?}",
                wave_report.coverage.missing_within(lo, hi)
            ));
        }
        if w == 0 {
            // Wave 0 ran every group: it is each group's first prefix.
            groups = wave_report.groups.clone();
            active = (0..groups.len()).collect();
        } else {
            for &gi in &active {
                groups[gi] = groups[gi].merge(&wave_report.groups[gi]);
            }
        }
        folded.push(wave_report);
        // Retire groups whose rule fired at this boundary.
        if let Some(rule) = trials.precision() {
            active.retain(|&gi| !rule.satisfied_by(&groups[gi].summary()));
        }
        if active.is_empty() {
            break;
        }
        // Window w+1 is already in flight under the previous (superset)
        // active set; pipeline w+2 under the set we just refined.
        if w + 2 < windows.len() {
            enqueue_window(pool, w + 2, &Some(active.clone()), saved_by[w + 2].as_ref());
        }
        w += 1;
    }
    // Whatever the pipeline ran ahead on (the rule retired every group,
    // or the cap cut the schedule) is killed when the pool drops. Groups
    // still active at the cap stop with their accumulated prefix.
    Ok(Ok(Report {
        graph: GraphInfo::of(g),
        query: spec.query.clone(),
        budget: spec.budget.clone(),
        coverage: Coverage::full(trials.cap() as u64),
        groups,
    }))
}

/// Prints a completed merged report exactly like `mrw run` would, plus
/// the fanout summary line on stderr.
fn emit_complete(merged: &Report, opts: &Options, workers: usize, retries_used: usize) {
    eprintln!(
        "mrw fanout: {} trials across {} worker(s), {} retr{} used",
        merged.consumed_trials(),
        workers,
        retries_used,
        if retries_used == 1 { "y" } else { "ies" }
    );
    if opts.json {
        print!("{}", merged.to_json());
        return;
    }
    crate::print_table(&crate::report_table(merged), opts.format);
    if let Some(certified) = merged.certified() {
        println!(
            "precision rule {} on every group ({} trials total)",
            if certified {
                "satisfied"
            } else {
                "NOT satisfied"
            },
            merged.consumed_trials()
        );
    }
}

/// Shared tail of `mrw fanout` and `mrw resume`: emit the completed
/// report, or checkpoint the partial progress and either abort with the
/// resume instructions or (`--partial-ok`) emit the merged partial.
fn conclude(
    spec: QuerySpec,
    result: DriveResult,
    opts: &Options,
    prior_failures: Vec<String>,
    reuse_checkpoint: Option<String>,
) -> Result<(), String> {
    let workers = opts.workers.unwrap_or_else(mrw_par::available_threads);
    let interrupted = match result.outcome {
        Ok(merged) => {
            emit_complete(&merged, opts, workers, result.retries_used);
            return Ok(());
        }
        Err(interrupted) => interrupted,
    };
    let mut failures = prior_failures;
    failures.extend(result.failures);
    let checkpoint = Checkpoint {
        spec,
        failures,
        waves: interrupted.waves,
    };
    // Precedence: --checkpoint, then the checkpoint file being resumed
    // (progress folds back into it), then a spec-hash-derived temp path.
    let path = opts
        .checkpoint
        .clone()
        .or(reuse_checkpoint)
        .unwrap_or_else(|| {
            std::env::temp_dir()
                .join(format!("mrw-checkpoint-{}.json", checkpoint.spec_hash()))
                .display()
                .to_string()
        });
    std::fs::write(&path, checkpoint.to_json()).map_err(|e| format!("{path}: {e}"))?;
    if opts.partial_ok {
        eprintln!(
            "mrw fanout: {}; still missing {:?}; emitting the merged partial report \
             ({} of {} trials); checkpointed to {path} — finish with: mrw resume {path}",
            interrupted.error,
            interrupted.missing,
            checkpoint.covered_trials(),
            spec_trial_space(&checkpoint),
            path = path
        );
        if checkpoint.waves.is_empty() {
            return Err(format!(
                "{}; no chunk completed, so there is no partial report to emit \
                 (checkpoint still written to {path})",
                interrupted.error
            ));
        }
        let partial = merge_all(&checkpoint.waves)?;
        if opts.json {
            print!("{}", partial.to_json());
        } else {
            crate::print_table(&crate::report_table(&partial), opts.format);
        }
        Ok(())
    } else {
        Err(format!(
            "{}; still missing {:?}; partial progress checkpointed to {path} — \
             finish with: mrw resume {path} (or pass --partial-ok to accept the \
             partial report); failures: [{}]",
            interrupted.error,
            interrupted.missing,
            checkpoint.failures.join("; "),
            path = path
        ))
    }
}

/// The trial-index space of a checkpoint's spec.
fn spec_trial_space(checkpoint: &Checkpoint) -> u64 {
    checkpoint.spec.budget.trials_budget().cap() as u64
}

/// `mrw fanout spec.json --workers N [--shards S | --chunk C] [--retries
/// R] [--deadline-ms D] [--partial-ok] [--checkpoint PATH]`: run a spec
/// across local worker processes and print the merged report —
/// byte-identical to `mrw run spec.json` for fixed *and* adaptive
/// budgets, even when workers die, hang, straggle, or corrupt their
/// output and are retried.
pub fn run_fanout(opts: &Options) -> Result<(), String> {
    let (spec, g) = crate::load_spec(opts)?;
    let result = drive(&spec, &g, &[], opts)?;
    conclude(spec, result, opts, Vec::new(), None)
}

/// `mrw resume checkpoint.json`: finish an interrupted fanout from its
/// checkpoint, dispatching only the still-missing trial ranges. The
/// output completes byte-identically to an unfailed `mrw run` of the
/// same spec. Execution knobs (`--workers`, `--retries`, `--threads`,
/// `--deadline-ms`, `--chunk`, `--json`) apply; budget overrides are
/// rejected because byte-identity requires the checkpointed spec
/// unchanged.
pub fn run_resume(opts: &Options) -> Result<(), String> {
    let path = match opts.files.as_slice() {
        [path] => path.clone(),
        [] => return Err("mrw resume needs a checkpoint file".into()),
        more => {
            return Err(format!(
                "mrw resume takes exactly one checkpoint file (got {})",
                more.len()
            ))
        }
    };
    if opts.trials.is_some()
        || opts.seed.is_some()
        || opts.batch.is_some()
        || opts.backend.is_some()
        || opts.precision_rule()?.is_some()
    {
        return Err(
            "mrw resume cannot override the checkpointed spec (budget/backend flags \
             would change what byte-identical completion means); only execution \
             knobs like --workers/--retries/--threads/--deadline-ms/--chunk apply"
                .into(),
        );
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let checkpoint = Checkpoint::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let g = crate::checked_graph(&checkpoint.spec).map_err(|e| format!("{path}: {e}"))?;
    let result = drive(&checkpoint.spec, &g, &checkpoint.waves, opts)?;
    conclude(
        checkpoint.spec,
        result,
        opts,
        checkpoint.failures,
        Some(path),
    )
}
