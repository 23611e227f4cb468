//! The traced run: every workload at a fixed size with spans around
//! each call into a layer, the same work alternately untraced and traced
//! for the tracing overhead, and the probes that isolate one layer
//! (scalar engine, one thread, raw engine loop, codec, merge, process
//! spawn, ping). Prints every per-layer metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mrw_core::engine::{Engine, FullCover, SimpleStep};
use mrw_core::query::{Ledger, QuerySpec, Report, Session};
use mrw_core::{walk_rng, BatchMode, EngineArena};
use mrw_graph::GraphBackend;
use mrw_par::SeedSequence;
use mrw_stats::IntMoments;

use crate::engine_sweep::{self, THREADS};
use crate::fanout_small;
use crate::serve_mix::{self, Kind, Plan};
use crate::stats::{beyond, median, percentile, sorted, MIN_BEYOND};
use crate::trace::{self, Span, Tracer};
use crate::{Ctx, Outcome};

/// Alternating runs per side in the engine, thread, session and
/// engine-overhead probes.
const PROBE_PAIRS: usize = 5;
/// Trials of the torus1024-csr job in the thread-scaling probe.
const PAR_TRIALS: usize = 8;
/// Engine-sweep rounds in the traced workload pass.
const ENGINE_ROUNDS: usize = 2;
/// Fanout invocations in the traced workload pass, and alternating
/// pairs in the overhead probe.
const FANOUT_RUNS: usize = 40;

/// Seconds per call of `f` over `reps` calls.
fn per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Median of five [`per_call`] batches.
fn median_per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let batches: Vec<f64> = (0..5).map(|_| per_call(reps, &mut f)).collect();
    median(&batches)
}

/// One traced job run: ns per step per busy thread, and its output.
fn probe(
    tracer: &Tracer,
    layer: &str,
    job: &engine_sweep::Job,
    g: &mrw_core::AnyGraph,
    threads: usize,
    batch: BatchMode,
) -> (f64, engine_sweep::JobOutput) {
    let t = Instant::now();
    let run = tracer.span(&format!("{layer}:{}", job.name), None, 0, || {
        job.run(g, threads, batch)
    });
    let ns = t.elapsed().as_secs_f64() * 1e9 * threads as f64 / run.steps as f64;
    (ns, run)
}

/// Whether two runs of a job agree on every group's moments.
fn groups_equal(a: &engine_sweep::JobOutput, b: &engine_sweep::JobOutput) -> bool {
    a.groups.len() == b.groups.len() && a.groups.iter().zip(&b.groups).all(|(x, y)| x.1 == y.1)
}

/// Durations (ns) of every span per name.
fn durations(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.clone())
            .or_default()
            .push((s.end - s.start) as f64);
    }
    out
}

fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    (traced_s / untraced_s - 1.0) * 100.0
}

pub fn run(ctx: &Ctx, work_dir: &Path, workload: &str) -> Result<Outcome, String> {
    let mut out = Outcome {
        selftest_ok: true,
        ..Outcome::default()
    };
    let mut spans = Vec::new();
    engine(ctx, &mut out, &mut spans)?;
    fanout(ctx, &mut out, &mut spans)?;
    serve(ctx, &mut out, &mut spans)?;
    let totals = trace::by_name(&spans);
    out.notes
        .push(format!("{} spans; self time per layer:", spans.len()));
    for (name, (total, own, count)) in &totals {
        out.notes.push(format!(
            "  {name:<40} n={count:<6} total {:>10.3} ms  self {:>10.3} ms",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    let path = work_dir.join(format!("trace-{workload}-seed{}.jsonl", ctx.seed));
    std::fs::write(&path, trace::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

fn engine(ctx: &Ctx, out: &mut Outcome, spans: &mut Vec<Span>) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let m = engine_sweep::measure(ctx, &tracer, &mut out.tally, Some(ENGINE_ROUNDS))?;
    // Untraced and traced rounds alternate on the same graphs, so host
    // drift hits both; their outputs must equal the workload's.
    let (plain, traced) = (Tracer::new(false), Tracer::new(true));
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    for r in 0..PROBE_PAIRS {
        for (tr, total) in [(&plain, &mut plain_ms), (&traced, &mut traced_ms)] {
            for (j, (run, ms)) in engine_sweep::round(&m.jobs, &m.graphs, tr, r)
                .into_iter()
                .enumerate()
            {
                *total += ms;
                out.tally.check(run.bytes == m.first[j].bytes, || {
                    format!(
                        "{}: overhead round differs from the workload",
                        m.jobs[j].name
                    )
                });
            }
        }
    }
    out.metric(
        "trace.overhead_pct.engine-sweep",
        overhead_pct(plain_ms, traced_ms),
        "%",
    );

    let d = durations(&tracer.snapshot());
    let mut ns = Vec::new();
    for (j, job) in m.jobs.iter().enumerate() {
        let g = &m.graphs[j];
        let build = &d[&format!("graph.build:{}", job.name)];
        out.metric(
            format!("graph.build_ms.{}", job.name),
            median(build) / 1e6,
            "ms",
        );
        out.metric(
            format!("graph.csr_mb.{}", job.name),
            job.graph.csr_bytes_estimate() as f64 / (1u64 << 20) as f64,
            "MiB",
        );
        // Batched and scalar runs alternate, so host drift hits both.
        let (mut batched, mut scalar) = (Vec::new(), Vec::new());
        let driver = job.driver(g, BatchMode::Auto);
        for _ in 0..PROBE_PAIRS {
            let (ns, run) = probe(&tracer, "engine.auto", job, g, THREADS, BatchMode::Auto);
            out.tally.check(run.bytes == m.first[j].bytes, || {
                format!("{}: probe run differs from the workload's", job.name)
            });
            batched.push(ns);
            let (ns, run) = probe(&tracer, "engine.never", job, g, THREADS, BatchMode::Never);
            out.tally.check(job.structurally_ok(&run, g.n()), || {
                format!("{}: scalar run failed the structural check", job.name)
            });
            // The scalar loop draws another stream than the batched
            // drivers, so equal moments mean the engine chose scalar.
            let same = groups_equal(&run, &m.first[j]);
            out.tally.check(same == (driver == "scalar"), || {
                format!(
                    "{}: tagged {driver}, but --no-batch moments {} the default's",
                    job.name,
                    if same { "equal" } else { "differ from" }
                )
            });
            scalar.push(ns);
        }
        let (batched, scalar) = (median(&batched), median(&scalar));
        out.metric(format!("engine.ns_per_step.{}", job.name), batched, "ns");
        out.metric(
            format!("engine.steps.{}", job.name),
            m.first[j].steps as f64,
            "steps",
        );
        out.metric(
            format!("engine.scalar_ns_per_step.{}", job.name),
            scalar,
            "ns",
        );
        out.metric(
            format!("engine.batched_over_scalar.{}", job.name),
            scalar / batched,
            "ratio",
        );
        out.notes.push(format!(
            "engine {:<20} driver {:<8} ({} under --no-batch)  {:.3} ns/step batched, {:.3} scalar",
            job.name,
            job.driver(g, BatchMode::Auto),
            job.driver(g, BatchMode::Never),
            batched,
            scalar
        ));
        ns.push(batched);
    }
    out.metric("engine.implicit_over_csr", ns[1] / ns[0], "ratio");

    // The engine API on `Session::run`'s partial-cover trial seeds must
    // reproduce its moments, so batched and scalar probes step the same
    // trials.
    let via_engine = m.jobs[0].run_engine(&m.graphs[0], SimpleStep, THREADS, BatchMode::Auto);
    out.tally.check(groups_equal(&via_engine, &m.first[0]), || {
        "torus1024-csr: engine API moments differ from Session::run".into()
    });

    // Thread scaling on torus1024-csr with PAR_TRIALS trials, so how two
    // trial lengths happen to split across threads does not dominate;
    // 1 and 2 threads alternate and the bytes must not depend on the
    // thread count.
    let job = engine_sweep::Job {
        trials: PAR_TRIALS,
        ..m.jobs[0].clone()
    };
    let g = &m.graphs[0];
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_PAIRS {
        let (ns, run1) = probe(&tracer, "par.threads_1", &job, g, 1, BatchMode::Auto);
        one.push(ns);
        let (ns, run2) = probe(&tracer, "par.threads_2", &job, g, THREADS, BatchMode::Auto);
        two.push(ns);
        out.tally.check(run1.bytes == run2.bytes, || {
            "torus1024-csr at 1 thread differs from 2 threads".into()
        });
    }
    // ns per step per busy thread: efficiency is the 1-thread cost over
    // the 2-thread cost per thread.
    out.metric("par.efficiency_2t", median(&one) / median(&two), "ratio");
    for first in &m.first {
        out.reports.push_str(&first.bytes);
    }
    out.selftest_ok &= m.selftest_ok;
    spans.extend(tracer.take());
    Ok(())
}

/// The raw engine loop `Session::run` wraps for a cover query: the same
/// seed stream, one reused arena and observer, one thread.
fn raw_cover(spec: &QuerySpec, g: &impl GraphBackend) -> IntMoments {
    let mrw_core::Query::Cover { k, starts } = &spec.query else {
        unreachable!("session probes use cover specs")
    };
    let start = starts[0];
    let seq = SeedSequence::new(spec.budget.seed).child(start as u64 + 1);
    let mut arena = EngineArena::new();
    let mut cover = FullCover::new(g.n());
    let tokens = vec![start; *k];
    let mut moments = IntMoments::new();
    for i in 0..spec.budget.trials {
        cover.reset(g.n());
        let mut rng = walk_rng(seq.seed_for(i as u64));
        let out = Engine::new(g, SimpleStep, &mut cover).run_with(&tokens, &mut rng, &mut arena);
        moments.push(out.rounds);
    }
    moments
}

/// `session.ns_per_trial` and `session.overhead_ns_per_trial` on a
/// workload's spec, with the raw loop checked against the session.
fn session_probe(
    label: &str,
    spec: &QuerySpec,
    out: &mut Outcome,
    tracer: &Tracer,
) -> Result<(), String> {
    let g = spec.graph.resolve()?;
    let one = mrw_core::Budget {
        threads: 1,
        ..spec.budget.clone()
    };
    let reps = (4_000 / spec.budget.trials).max(1);
    let (mut session, mut raw) = (Vec::new(), Vec::new());
    for _ in 0..3 * PROBE_PAIRS {
        session.push(tracer.span(&format!("session.probe:{label}"), None, 0, || {
            per_call(reps, || Session::new(one.clone()).run(&g, &spec.query))
        }));
        raw.push(
            tracer.span(&format!("engine.raw_loop:{label}"), None, 0, || {
                per_call(reps, || raw_cover(spec, &g))
            }),
        );
    }
    let (session, raw) = (median(&session), median(&raw));
    let report = Session::new(one).run(&g, &spec.query);
    out.tally
        .check(report.groups[0].moments == raw_cover(spec, &g), || {
            format!("{label}: raw engine loop differs from Session::run")
        });
    let trials = spec.budget.trials as f64;
    out.metric(
        format!("session.ns_per_trial.{label}"),
        session * 1e9 / trials,
        "ns",
    );
    out.metric(
        format!("session.overhead_ns_per_trial.{label}"),
        (session - raw) * 1e9 / trials,
        "ns",
    );
    Ok(())
}

fn fanout(ctx: &Ctx, out: &mut Outcome, spans: &mut Vec<Span>) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let m = fanout_small::measure(ctx, &tracer, &mut out.tally, Some(FANOUT_RUNS))?;
    out.selftest_ok &= m.selftest_ok;
    // Untraced and traced invocations alternate, as for the engine.
    let (plain, traced) = (Tracer::new(false), Tracer::new(true));
    let (mut plain_s, mut traced_s, mut retries) = (0.0, 0.0, m.retries);
    for i in 0..FANOUT_RUNS as u64 {
        for (tr, total) in [(&plain, &mut plain_s), (&traced, &mut traced_s)] {
            let (secs, ok, stdout, stderr) = fanout_small::invoke(ctx, &m.spec_path, tr, i)?;
            *total += secs;
            let r = fanout_small::retries(&stderr);
            retries += r.unwrap_or(0);
            fanout_small::check_invocation(
                &mut out.tally,
                i,
                ok && r.is_some(),
                &stdout,
                &m.oracle_json,
            );
        }
    }
    out.metric(
        "trace.overhead_pct.fanout-small",
        overhead_pct(plain_s, traced_s),
        "%",
    );
    let chunks = fanout_small::chunks();
    out.metric("fanout.chunks", chunks as f64, "count");
    out.metric("fanout.retries", retries as f64, "count");
    let mut spawn = Vec::new();
    for i in 0..9 {
        let mut cmd = fanout_small::mrw(ctx);
        cmd.arg("help");
        let (secs, ok, _, _) =
            tracer.span("process.spawn", None, i, || fanout_small::timed(&mut cmd))?;
        out.tally.check(ok, || "mrw help failed".into());
        spawn.push(secs * 1e3);
    }
    out.metric("fanout.spawn_ms", median(&spawn), "ms");
    out.metric(
        "fanout.overhead_ms_per_chunk",
        (median(&m.latencies_ms) - m.inproc_s * 1e3) / chunks as f64,
        "ms",
    );

    // Fold the chunk reports the way the driver does.
    let g = m.spec.graph.resolve()?;
    let parts: Vec<Report> = (0..chunks)
        .map(|c| {
            let lo = c * fanout_small::CHUNK;
            let hi = (lo + fanout_small::CHUNK).min(fanout_small::TRIALS);
            Session::new(m.spec.budget.clone())
                .with_range(lo..hi)
                .run(&g, &m.spec.query)
        })
        .collect();
    let fold = || -> Result<Report, String> {
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc = Report::merge(&acc, p)?;
        }
        Ok(acc)
    };
    let merged = fold()?;
    out.tally.check(merged.to_json() == m.oracle_json, || {
        "merged chunk reports differ from the in-process run".into()
    });
    let merge_s = tracer.span("merge.fold", None, 0, || median_per_call(50, fold));
    out.metric("merge.us_per_shard", merge_s * 1e6 / chunks as f64, "us");

    session_probe("fanout-small", &m.spec, out, &tracer)?;
    out.reports.push_str(&m.oracle_json);
    let spec_text = std::fs::read_to_string(&m.spec_path).map_err(|e| e.to_string())?;
    out.tally.check(
        QuerySpec::from_json(&spec_text).as_ref() == Ok(&m.spec),
        || "fanout spec does not round-trip".into(),
    );
    spans.extend(tracer.take());
    Ok(())
}

fn serve(ctx: &Ctx, out: &mut Outcome, spans: &mut Vec<Span>) -> Result<(), String> {
    // Requests per client so every kind has ten samples beyond its p90.
    let per_client = (1..)
        .find(|&n| {
            let mut count: BTreeMap<Kind, usize> = BTreeMap::new();
            for c in 0..serve_mix::CLIENTS {
                let mut s = serve_mix::Schedule::new(ctx.seed, c);
                for _ in 0..n {
                    *count.entry(s.next_request().kind).or_default() += 1;
                }
            }
            Kind::ALL
                .iter()
                .all(|k| beyond(count.get(k).copied().unwrap_or(0), 900) >= MIN_BEYOND)
        })
        .expect("some length qualifies");
    let plan = Plan::Fixed(per_client);
    let untraced = serve_mix::measure(ctx, &Tracer::new(false), &mut out.tally, plan)?;
    let tracer = Tracer::new(true);
    let m = serve_mix::measure(ctx, &tracer, &mut out.tally, plan)?;
    out.selftest_ok &= untraced.selftest_ok && m.selftest_ok;
    out.metric(
        "trace.overhead_pct.serve-mix",
        overhead_pct(untraced.wall_s, m.wall_s),
        "%",
    );
    for kind in Kind::ALL {
        let ms = sorted(&serve_mix::latencies(&m.done, kind));
        out.samples
            .push((format!("serve.{}", kind.name()), ms.len()));
        out.metric(
            format!("serve.{}_p50_ms", kind.name()),
            percentile(&ms, 500),
            "ms",
        );
        out.metric(
            format!("serve.{}_p90_ms", kind.name()),
            percentile(&ms, 900),
            "ms",
        );
    }
    out.metric("serve.ping_us", median(&m.ping_us), "us");
    let compute = median(&m.miss_compute_ms);
    out.metric("serve.compute_ms.miss", compute, "ms");
    let miss = sorted(&serve_mix::latencies(&m.done, Kind::Miss));
    out.metric(
        "serve.overhead_ms.miss",
        percentile(&miss, 500) - compute,
        "ms",
    );
    let counter = |v: &mrw_core::query::json::Value, k: &str| {
        v.get(k).and_then(|x| x.as_u64()).unwrap_or(0) as f64
    };
    for name in ["hits", "misses", "extensions", "errors", "trials_executed"] {
        out.metric(format!("serve.{name}"), counter(&m.stats, name), "count");
    }
    let gc = m
        .stats
        .get("graph_cache")
        .cloned()
        .unwrap_or(mrw_core::query::json::Value::Null);
    let (gh, gm) = (counter(&gc, "hits"), counter(&gc, "misses"));
    out.metric("serve.graph_cache_hit_ratio", gh / (gh + gm), "ratio");
    out.notes.push(format!(
        "serve graph cache: {gh} hits of {} lookups",
        gh + gm
    ));
    out.metric("serve.ledger_files", m.ledger_files as f64, "count");
    out.metric("serve.ledger_kb", m.ledger_bytes as f64 / 1024.0, "KiB");

    // Session on the serve spec, then the codec on the run's documents.
    let spec = serve_mix::spec(0, serve_mix::hit_seeds(ctx.seed)[0], serve_mix::HIT_TRIALS);
    session_probe("serve-mix", &spec, out, &tracer)?;
    let spec_text = spec.to_json();
    let parse = tracer.span("codec.spec_parse", None, 0, || {
        median_per_call(2000, || QuerySpec::from_json(&spec_text))
    });
    out.metric("codec.spec_parse_us", parse * 1e6, "us");
    let g = spec.graph.resolve()?;
    let report = Session::new(spec.budget.clone()).run(&g, &spec.query);
    let text = report.to_json();
    let mb = |bytes: usize, secs: f64| bytes as f64 / secs / (1u64 << 20) as f64;
    let render = tracer.span("codec.report_render", None, 0, || {
        median_per_call(2000, || report.to_json())
    });
    out.metric("codec.report_render_mb_s", mb(text.len(), render), "MiB/s");
    let parse = tracer.span("codec.report_parse", None, 0, || {
        median_per_call(2000, || Report::from_json(&text))
    });
    out.metric("codec.report_parse_mb_s", mb(text.len(), parse), "MiB/s");
    out.tally
        .check(Report::from_json(&text).as_ref() == Ok(&report), || {
            "report does not round-trip".into()
        });
    let ledger = Ledger::from_json(&m.largest_ledger)?;
    let render = tracer.span("codec.ledger_render", None, 0, || {
        median_per_call(200, || ledger.to_json())
    });
    out.metric(
        "codec.ledger_render_mb_s",
        mb(m.largest_ledger.len(), render),
        "MiB/s",
    );
    let parse = tracer.span("codec.ledger_parse", None, 0, || {
        median_per_call(200, || Ledger::from_json(&m.largest_ledger))
    });
    out.metric(
        "codec.ledger_parse_mb_s",
        mb(m.largest_ledger.len(), parse),
        "MiB/s",
    );
    out.tally.check(ledger.to_json() == m.largest_ledger, || {
        "persisted ledger does not re-render byte-identically".into()
    });
    out.notes.push(format!(
        "codec documents: spec {} B, report {} B, ledger {} B ({} prefixes)",
        spec_text.len(),
        text.len(),
        m.largest_ledger.len(),
        ledger
            .groups
            .iter()
            .map(|g| g.prefixes.len())
            .sum::<usize>()
    ));
    for d in &m.done {
        if let Ok(r) = &d.response {
            out.reports.push_str(&String::from_utf8_lossy(r));
        }
    }
    spans.extend(tracer.take());
    Ok(())
}
