//! `engine-sweep`: six fixed-budget jobs in-process, one caller, two
//! threads. Each trial is 10³–10⁷ steps, so the engine takes nearly all
//! the wall time and every driver `BatchMode::Auto` can pick is on the
//! path (regular, implicit, flat, bucketed, scalar).

use std::time::Instant;

use mrw_core::engine::{FullCover, PartialCover};
use mrw_core::query::{AnyGraph, BackendChoice, Budget, GraphSpec, Query, Report, Session};
use mrw_core::{
    fraction_target, walk_rng, BatchMode, CompiledProcess, Engine, EngineArena, Process,
    SimpleStep, WalkProcess, BATCH_AUTO_MIN_K,
};
use mrw_graph::{generators, GraphBackend};
use mrw_par::{par_map_with, SeedSequence};
use mrw_stats::IntMoments;

use crate::stats::report_steps;
use crate::trace::Tracer;
use crate::{Ctx, Tally};

/// Worker threads of every job (the benchmark host's `nproc`).
pub const THREADS: usize = 2;

/// Which public surface runs a job.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// `Session::run` on the job's query (spec-expressible jobs).
    Session,
    /// The engine API with a compiled two-word kernel, which spec files
    /// cannot select.
    Engine(WalkProcess),
}

#[derive(Debug, Clone)]
pub struct Job {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub query: Query,
    pub trials: usize,
    pub seed: u64,
    pub path: Path,
}

/// The six jobs, seeded from the workload seed. Trial counts size each
/// job to roughly 100 ms at 2 threads on a 2-vCPU host.
pub fn jobs(seed: u64) -> Vec<Job> {
    let seeds = SeedSequence::new(seed).child(1);
    let torus_seed = seeds.seed_for(0) >> 1;
    let center = generators::barbell_center(401);
    let torus = |backend| GraphSpec {
        backend,
        ..GraphSpec::new("torus", 1024)
    };
    let partial = Query::PartialCover {
        k: 256,
        start: 0,
        gammas: vec![0.2],
    };
    let barbell_cover = |k| Query::Cover {
        k,
        starts: vec![center],
    };
    vec![
        Job {
            name: "torus1024-csr",
            graph: torus(BackendChoice::Csr),
            query: partial.clone(),
            trials: 2,
            seed: torus_seed,
            path: Path::Session,
        },
        Job {
            name: "torus1024-implicit",
            graph: torus(BackendChoice::Implicit),
            query: partial,
            trials: 2,
            seed: torus_seed,
            path: Path::Session,
        },
        Job {
            name: "barbell-simple",
            graph: GraphSpec::new("barbell", 401),
            query: barbell_cover(1024),
            trials: 2560,
            seed: seeds.seed_for(1) >> 1,
            path: Path::Session,
        },
        Job {
            name: "barbell-lazy",
            graph: GraphSpec::new("barbell", 401),
            query: barbell_cover(256),
            trials: 896,
            seed: seeds.seed_for(2) >> 1,
            path: Path::Engine(WalkProcess::Lazy(0.5)),
        },
        Job {
            name: "barbell-metropolis",
            graph: GraphSpec::new("barbell", 401),
            query: barbell_cover(256),
            trials: 576,
            seed: seeds.seed_for(3) >> 1,
            path: Path::Engine(WalkProcess::Metropolis),
        },
        Job {
            name: "cycle-scalar",
            graph: GraphSpec::new("cycle", 1024),
            query: Query::Cover {
                k: 16,
                starts: vec![0],
            },
            trials: 24,
            seed: seeds.seed_for(4) >> 1,
            path: Path::Session,
        },
    ]
}

impl Job {
    pub fn k(&self) -> usize {
        crate::stats::walkers(&self.query).expect("round-counting job")
    }

    fn start(&self) -> u32 {
        match &self.query {
            Query::Cover { starts, .. } => starts[0],
            Query::PartialCover { start, .. } => *start,
            _ => unreachable!("jobs are covers"),
        }
    }

    /// Vertices a trial must visit: the stopping rule's target.
    fn target(&self, n: usize) -> usize {
        match &self.query {
            Query::PartialCover { gammas, .. } => fraction_target(n, gammas[0]),
            _ => n,
        }
    }

    fn process(&self) -> WalkProcess {
        match self.path {
            Path::Session => WalkProcess::Simple,
            Path::Engine(p) => p,
        }
    }

    /// The driver the engine picks for this job under `batch`: a copy
    /// of `drive`/`drive_batched`'s dispatch rule, kept to the cases the
    /// six jobs reach (the row-wise fallbacks for adjacency arrays past
    /// `u32` are not). All batched drivers draw one stream, so outputs
    /// tell only batched from scalar apart; the traced run checks that
    /// half against the engine's bytes.
    pub fn driver(&self, g: &AnyGraph, batch: BatchMode) -> &'static str {
        let process = CompiledProcess::new(self.process(), g);
        let batched = match batch {
            BatchMode::Never => false,
            BatchMode::Always => true,
            BatchMode::Auto => self.k() >= BATCH_AUTO_MIN_K,
        };
        if !batched || process.bits_per_step().is_none() {
            return "scalar";
        }
        match g.csr() {
            None => "implicit",
            Some(csr) if csr.regular_degree().is_some_and(|d| d > 0) => "regular",
            Some(_) if process.is_uniform_pick() => "flat",
            Some(_) => "bucketed",
        }
    }

    fn budget(&self, threads: usize) -> Budget {
        Budget {
            trials: self.trials,
            seed: self.seed,
            threads,
            ..Budget::default()
        }
    }

    /// Runs the job once under `batch`: its canonical output bytes, the
    /// per-group moments and the engine steps taken. Cover queries keep
    /// their public path in both modes; `Session::run` steps partial
    /// covers under `Auto` only, so their scalar run takes the engine API
    /// with the same process and observer.
    pub fn run(&self, g: &AnyGraph, threads: usize, batch: BatchMode) -> JobOutput {
        match (self.path, &self.query) {
            (Path::Session, Query::Cover { .. }) => {
                let budget = Budget {
                    batch,
                    ..self.budget(threads)
                };
                JobOutput::from_report(Session::new(budget).run(g, &self.query))
            }
            (Path::Session, _) if batch == BatchMode::Auto => {
                JobOutput::from_report(Session::new(self.budget(threads)).run(g, &self.query))
            }
            (Path::Session, _) => self.run_engine(g, SimpleStep, threads, batch),
            (Path::Engine(p), _) => self.run_engine(g, CompiledProcess::new(p, g), threads, batch),
        }
    }

    /// The job through the engine API with the given process, on the
    /// trial seeds `Session::run` uses: seed → child(start+1) → trial for
    /// covers, `seed ^ trial << 20` for a single-γ partial cover.
    pub fn run_engine<P: Process + Clone + Sync>(
        &self,
        g: &AnyGraph,
        process: P,
        threads: usize,
        batch: BatchMode,
    ) -> JobOutput {
        let k = self.k();
        let start = self.start();
        let target = self.target(g.n());
        let partial = target < g.n();
        let seq = SeedSequence::new(self.seed).child(start as u64 + 1);
        let trial_seed = |i: usize| {
            if partial {
                self.seed ^ (i as u64) << 20
            } else {
                seq.seed_for(i as u64)
            }
        };
        let rounds = par_map_with(
            self.trials,
            threads,
            || (EngineArena::new(), vec![start; k]),
            |(arena, starts), i| {
                let mut rng = walk_rng(trial_seed(i));
                let p = process.clone();
                if partial {
                    let obs = PartialCover::new(g.n(), target);
                    Engine::new(g, p, obs)
                        .batch(batch)
                        .run_with(starts, &mut rng, arena)
                        .rounds
                } else {
                    let obs = FullCover::new(g.n());
                    Engine::new(g, p, obs)
                        .batch(batch)
                        .run_with(starts, &mut rng, arena)
                        .rounds
                }
            },
        );
        let mut moments = IntMoments::new();
        rounds.iter().for_each(|&r| moments.push(r));
        let bytes = format!(
            "{} {} k={k} batch={batch:?} count={} sum={} sum_sq={} min={:?} max={:?}",
            self.name,
            g.name(),
            moments.count(),
            moments.sum(),
            moments.sum_sq(),
            moments.min(),
            moments.max()
        );
        JobOutput {
            steps: moments.sum() * k as u128,
            groups: vec![(self.trials as u64, moments, 0)],
            bytes,
        }
    }

    /// Structural checks every output must pass: each group counted
    /// every trial, censored none, and no trial beat the information
    /// bound of `k` new vertices per round.
    pub fn structurally_ok(&self, out: &JobOutput, n: usize) -> bool {
        let k = self.k() as u64;
        let floor = (self.target(n) as u64 - 1).div_ceil(k);
        !out.groups.is_empty()
            && out.groups.iter().all(|(trials, m, censored)| {
                *trials == self.trials as u64
                    && m.count() == self.trials as u64
                    && *censored == 0
                    && m.min().is_some_and(|min| min >= floor)
            })
    }
}

/// One job execution's observable output.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Canonical bytes: the report JSON, or the engine job's moments line.
    pub bytes: String,
    /// `(trials, moments, censored)` per group.
    pub groups: Vec<(u64, IntMoments, u64)>,
    pub steps: u128,
}

impl JobOutput {
    fn from_report(report: Report) -> JobOutput {
        JobOutput {
            steps: report_steps(&report),
            groups: report
                .groups
                .iter()
                .map(|g| (g.trials, g.moments, g.censored))
                .collect(),
            bytes: report.to_json(),
        }
    }
}

/// Builds every job's graph (`GraphSpec::resolve`), one span each.
pub fn build_graphs(jobs: &[Job], tracer: &Tracer) -> Result<Vec<AnyGraph>, String> {
    jobs.iter()
        .map(|job| {
            tracer.span(&format!("graph.build:{}", job.name), None, 0, || {
                job.graph.resolve()
            })
        })
        .collect()
}

/// What the measured phase produced.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub per_job_ms: Vec<Vec<f64>>,
    pub wall_s: f64,
    pub steps: u128,
    pub first: Vec<JobOutput>,
    pub graphs: Vec<AnyGraph>,
    pub jobs: Vec<Job>,
    /// Whether the flipped-byte self-test was caught.
    pub selftest_ok: bool,
}

/// One round: every job once, in order, each in a `job:` span around
/// its public call. Returns each job's output and latency in ms.
pub fn round(
    jobs: &[Job],
    graphs: &[AnyGraph],
    tracer: &Tracer,
    round: usize,
) -> Vec<(JobOutput, f64)> {
    jobs.iter()
        .zip(graphs)
        .enumerate()
        .map(|(j, (job, g))| {
            let req = (round * jobs.len() + j) as u64;
            let t = Instant::now();
            let open = tracer.begin(&format!("job:{}", job.name), None, req);
            let layer = match job.path {
                Path::Session => "session.run",
                Path::Engine(_) => "engine.run",
            };
            let out = tracer.span(
                &format!("{layer}:{}", job.name),
                crate::trace::id_of(&open),
                req,
                || job.run(g, THREADS, BatchMode::Auto),
            );
            tracer.end(open);
            (out, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Set-up repetitions: the median of these is `setup_s`.
pub const SETUP_REPEATS: usize = 15;

/// Runs the workload: set-up, then whole rounds of the six jobs until
/// `seconds` have passed and at least `min_requests` jobs completed (or
/// exactly `rounds` rounds when given). Every output is checked into
/// `tally`.
pub fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    tally: &mut Tally,
    rounds: Option<usize>,
) -> Result<Measured, String> {
    let jobs = jobs(ctx.seed);
    let mut setup_s = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        graphs = build_graphs(&jobs, tracer)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut outputs: Vec<Vec<JobOutput>> = vec![Vec::new(); jobs.len()];
    let mut per_job_ms = vec![Vec::new(); jobs.len()];
    let mut latencies_ms = Vec::new();
    let t0 = Instant::now();
    for r in 0.. {
        for (j, (out, ms)) in round(&jobs, &graphs, tracer, r).into_iter().enumerate() {
            latencies_ms.push(ms);
            per_job_ms[j].push(ms);
            outputs[j].push(out);
        }
        let done = match rounds {
            Some(n) => r + 1 >= n,
            None => {
                t0.elapsed().as_secs_f64() >= ctx.seconds && latencies_ms.len() >= ctx.min_requests
            }
        };
        if done {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let steps = outputs.iter().flatten().map(|o| o.steps).sum();
    let ns: Vec<usize> = graphs.iter().map(|g| g.n()).collect();
    check_outputs(&jobs, &ns, &outputs, tally);
    let selftest_ok = selftest(&jobs, &ns, &outputs);
    let first = outputs.into_iter().map(|mut o| o.swap_remove(0)).collect();
    Ok(Measured {
        setup_s,
        latencies_ms,
        per_job_ms,
        wall_s,
        steps,
        first,
        graphs,
        jobs,
        selftest_ok,
    })
}

/// The workload's oracle: every round of a job reproduces its first
/// round's bytes and passes the structural checks, and the implicit
/// backend reproduces the CSR job's bytes. `outputs[j]` holds job `j`'s
/// rounds; `ns[j]` its graph's vertex count.
pub fn check_outputs(jobs: &[Job], ns: &[usize], outputs: &[Vec<JobOutput>], tally: &mut Tally) {
    for (j, job) in jobs.iter().enumerate() {
        let reference = &outputs[j][0];
        for out in &outputs[j] {
            tally.check(out.bytes == reference.bytes, || {
                format!("{}: output differs between rounds", job.name)
            });
            tally.check(job.structurally_ok(out, ns[j]), || {
                format!("{}: structural check failed", job.name)
            });
        }
    }
    // The implicit backend must reproduce the CSR job's bytes.
    for (csr, implicit) in outputs[0].iter().zip(&outputs[1]) {
        tally.check(csr.bytes == implicit.bytes, || {
            "torus1024-implicit bytes differ from torus1024-csr".into()
        });
    }
}

/// The flipped-byte self-test, through [`check_outputs`] into scratch
/// tallies: a second round with one byte flipped must fail every job's
/// round-vs-round check, and a flipped torus1024-csr output must fail
/// the CSR-vs-implicit check, each and nothing else.
pub fn selftest(jobs: &[Job], ns: &[usize], outputs: &[Vec<JobOutput>]) -> bool {
    let flip = |o: &JobOutput| JobOutput {
        bytes: String::from_utf8_lossy(&crate::flipped(o.bytes.as_bytes())).into_owned(),
        ..o.clone()
    };
    let rounds: Vec<Vec<JobOutput>> = outputs
        .iter()
        .map(|o| vec![o[0].clone(), flip(&o[0])])
        .collect();
    let mut scratch = Tally::default();
    check_outputs(jobs, ns, &rounds, &mut scratch);
    let rounds_caught = scratch.failed == jobs.len() as u64;

    let mut firsts: Vec<Vec<JobOutput>> = outputs.iter().map(|o| vec![o[0].clone()]).collect();
    firsts[0][0] = flip(&outputs[0][0]);
    let mut scratch = Tally::default();
    check_outputs(jobs, ns, &firsts, &mut scratch);
    rounds_caught && scratch.failed == 1
}

/// The untraced run's end-to-end metrics.
pub fn e2e(ctx: &Ctx) -> Result<crate::Outcome, String> {
    let tracer = Tracer::new(false);
    let mut out = crate::Outcome::default();
    let m = measure(ctx, &tracer, &mut out.tally, None)?;
    let rss = crate::host::vm_hwm_kib("self").ok_or("cannot read VmHWM")?;
    out.end_to_end(&m.setup_s, m.steps, m.wall_s, &m.latencies_ms, rss);
    for (j, job) in m.jobs.iter().enumerate() {
        out.reports.push_str(&m.first[j].bytes);
        out.notes.push(format!(
            "job {:<20} driver {:<8} trials {:>4}  steps/run {:>12}  median {:>9.3} ms (n={})",
            job.name,
            job.driver(&m.graphs[j], BatchMode::Auto),
            job.trials,
            m.first[j].steps,
            crate::stats::median(&m.per_job_ms[j]),
            m.per_job_ms[j].len()
        ));
    }
    out.selftest_ok = m.selftest_ok;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One synthetic round per job: every trial takes one round past
    /// the information bound, and the torus jobs share their bytes.
    fn outputs(jobs: &[Job], ns: &[usize]) -> Vec<Vec<JobOutput>> {
        jobs.iter()
            .zip(ns)
            .map(|(job, &n)| {
                let floor = (job.target(n) as u64 - 1).div_ceil(job.k() as u64);
                let mut m = IntMoments::new();
                (0..job.trials).for_each(|_| m.push(floor + 1));
                let name = job
                    .name
                    .trim_end_matches("-implicit")
                    .trim_end_matches("-csr");
                vec![JobOutput {
                    bytes: format!("{name} sum={}", m.sum()),
                    groups: vec![(job.trials as u64, m, 0)],
                    steps: m.sum() * job.k() as u128,
                }]
            })
            .collect()
    }

    #[test]
    fn clean_outputs_pass_and_the_flipped_byte_self_test_is_caught() {
        let jobs = jobs(3);
        let ns = [1 << 20, 1 << 20, 401, 401, 401, 1024];
        let outs = outputs(&jobs, &ns);
        let mut tally = Tally::default();
        check_outputs(&jobs, &ns, &outs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2 * 6 + 1, 0));
        assert!(selftest(&jobs, &ns, &outs));

        // A censored trial or a too-short trial fails the structural check.
        let mut bad = outs.clone();
        bad[2][0].groups[0].2 = 1;
        bad[5][0].groups[0].1.push(0);
        let mut tally = Tally::default();
        check_outputs(&jobs, &ns, &bad, &mut tally);
        assert_eq!(tally.failed, 2);
    }
}
