//! `serve-mix`: a closed loop of two clients, each holding a persistent
//! TCP connection to `mrw serve --persist`, issuing a seeded schedule of
//! hits, extensions, misses and fresh-connection pings on small specs.
//! The only workload with accept, framing, the report cache and ledger
//! persistence on the path; reads run beside writes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mrw_core::query::json::{self, Value};
use mrw_core::query::{Budget, GraphSpec, Ledger, LedgerGroup, Query, QuerySpec, Session};
use mrw_par::SeedSequence;

use crate::stats::{median, report_steps};
use crate::trace::Tracer;
use crate::{Ctx, Tally};

/// Keys warm-started from the persist directory (half cycle, half torus).
pub const HIT_KEYS: usize = 8;
/// Trials of a hit-set entry, and of every hit request.
pub const HIT_TRIALS: usize = 64;
/// Trials of a miss (a fresh seed).
pub const MISS_TRIALS: usize = 64;
/// Trials one extension adds to its key's largest boundary.
pub const EXTEND_STEP: usize = 16;
/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Requests per client whose responses enter a timed run's digest.
const DIGEST_PREFIX: usize = 40;
/// Daemon boots whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Hit,
    Extend,
    Miss,
    Connect,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Hit, Kind::Miss, Kind::Extend, Kind::Connect];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Extend => "extend",
            Kind::Miss => "miss",
            Kind::Connect => "connect",
        }
    }
}

/// A small serve spec: `cycle(64)` or `torus(16)`, 8 walks from 0.
pub fn spec(family: usize, seed: u64, trials: usize) -> QuerySpec {
    let graph = if family == 0 {
        GraphSpec::new("cycle", 64)
    } else {
        GraphSpec::new("torus", 16)
    };
    QuerySpec {
        graph,
        query: Query::Cover {
            k: 8,
            starts: vec![0],
        },
        budget: Budget {
            trials,
            seed,
            ..Budget::default()
        },
    }
}

/// The hit set's seeds, from the workload seed.
pub fn hit_seeds(seed: u64) -> Vec<u64> {
    let seeds = SeedSequence::new(seed).child(3);
    (0..HIT_KEYS as u64)
        .map(|i| seeds.seed_for(i) >> 1)
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    /// The `run` spec (`None` for a connect-and-ping).
    pub spec: Option<QuerySpec>,
    /// For an extension: the budget of the boundary it extends.
    pub extends: Option<QuerySpec>,
}

/// Request kinds of one schedule block: 40/20/20/20.
const BLOCK: [Kind; 10] = [
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Hit,
    Kind::Extend,
    Kind::Extend,
    Kind::Miss,
    Kind::Miss,
    Kind::Connect,
    Kind::Connect,
];

/// Client `c`'s deterministic request stream: blocks of [`BLOCK`] in a
/// seeded order, so every prefix holds the mix to within one block.
/// Each client extends only its own half of the hit set, so the
/// boundaries of one key grow in one order and every counter the daemon
/// reports is a function of the schedule alone. Misses alternate between
/// the two graph families.
pub struct Schedule {
    /// Counter-mode draws: draw `i` is `seq.seed_for(i)`.
    seq: SeedSequence,
    drawn: u64,
    client: usize,
    block: Vec<Kind>,
    hits: Vec<u64>,
    extended: Vec<usize>,
    misses: u64,
    miss_base: u64,
}

impl Schedule {
    pub fn new(seed: u64, client: usize) -> Schedule {
        let seq = SeedSequence::new(seed).child(4 + client as u64);
        Schedule {
            miss_base: seq.seed_for(u64::MAX) >> 2,
            seq,
            drawn: 0,
            client,
            block: Vec::new(),
            hits: hit_seeds(seed),
            extended: vec![0; HIT_KEYS],
            misses: 0,
        }
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        self.drawn += 1;
        self.seq.seed_for(self.drawn) % n
    }

    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let kind = self.block.pop().expect("refilled above");
        let family = |key: usize| key % 2;
        match kind {
            Kind::Hit => {
                let key = self.below(HIT_KEYS as u64) as usize;
                Request {
                    kind,
                    spec: Some(spec(family(key), self.hits[key], HIT_TRIALS)),
                    extends: None,
                }
            }
            Kind::Extend => {
                let per_client = HIT_KEYS / CLIENTS;
                let key = self.client + CLIENTS * self.below(per_client as u64) as usize;
                let before = HIT_TRIALS + EXTEND_STEP * self.extended[key];
                self.extended[key] += 1;
                Request {
                    kind,
                    spec: Some(spec(family(key), self.hits[key], before + EXTEND_STEP)),
                    extends: Some(spec(family(key), self.hits[key], before)),
                }
            }
            Kind::Miss => {
                self.misses += 1;
                let seed = self.miss_base + (self.client as u64) * (1 << 40) + self.misses;
                Request {
                    kind,
                    spec: Some(spec((self.misses % 2) as usize, seed, MISS_TRIALS)),
                    extends: None,
                }
            }
            Kind::Connect => Request {
                kind,
                spec: None,
                extends: None,
            },
        }
    }
}

/// The frame `write_frame` puts on the wire for a body.
pub fn frame(body: &str) -> Vec<u8> {
    let mut out = body.as_bytes().to_vec();
    if !body.ends_with('\n') {
        out.push(b'\n');
    }
    out.push(b'\n');
    out
}

fn run_frame(spec: &QuerySpec) -> Vec<u8> {
    let spec = json::parse(&spec.to_json()).expect("canonical spec parses");
    frame(&Value::obj(vec![("verb", Value::str("run")), ("spec", spec)]).render())
}

fn verb_frame(verb: &str) -> Vec<u8> {
    frame(&Value::obj(vec![("verb", Value::str(verb))]).render())
}

/// The daemon's `pong` frame.
pub fn pong_frame() -> Vec<u8> {
    frame(
        &Value::obj(vec![
            ("schema", Value::str("mrw-serve-ok-v1")),
            ("ok", Value::str("pong")),
        ])
        .render(),
    )
}

/// A client connection: one write per request, read to the blank line.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request frame and returns the full response frame.
    pub fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        while !self.buf.ends_with(b"\n\n") {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection mid-frame".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(self.buf.clone())
    }
}

/// A running daemon.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Spawns `mrw serve` and waits for its ready line; returns the
    /// daemon and the seconds from spawn to ready.
    pub fn boot(ctx: &Ctx, persist: &Path) -> Result<(Daemon, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(&ctx.mrw)
            .args(["serve", "--listen", "127.0.0.1:0", "--persist"])
            .arg(persist)
            .env("MRW_TMPDIR", &ctx.tmp)
            .env("TMPDIR", &ctx.tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn mrw serve: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("mrw serve ready line: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let addr = match line.trim().strip_prefix("mrw-serve listening on ") {
            Some(addr) => addr.to_string(),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("unexpected mrw serve ready line {line:?}"));
            }
        };
        Ok((Daemon { child, addr }, secs))
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to stop and waits for it; true on a clean exit.
    pub fn shutdown(mut self) -> bool {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.call(&verb_frame("shutdown")))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }

    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Writes the hit set's ledgers — the documents the daemon itself would
/// persist after serving each key once — into `dir`.
pub fn prepopulate(seed: u64, dir: &Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut texts = Vec::new();
    for (key, &s) in hit_seeds(seed).iter().enumerate() {
        let spec = spec(key % 2, s, HIT_TRIALS);
        let g = spec.graph.resolve()?;
        let report = Session::new(spec.budget.clone()).run(&g, &spec.query);
        let ledger = Ledger {
            spec: spec.clone(),
            graph: report.graph.clone(),
            groups: report
                .groups
                .iter()
                .map(|grp| LedgerGroup {
                    label: grp.label.clone(),
                    prefixes: vec![(HIT_TRIALS as u64, grp.clone())],
                })
                .collect(),
        };
        let text = ledger.to_json();
        std::fs::write(dir.join(ledger.file_name()), &text)
            .map_err(|e| format!("write ledger: {e}"))?;
        texts.push(text);
    }
    Ok(texts)
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Position in its client's schedule.
    pub index: usize,
    pub req: Request,
    pub ms: f64,
    pub response: Result<Vec<u8>, String>,
}

/// How long the closed loop runs.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// At least `seconds` and at least `min` requests in total.
    Timed { seconds: f64, min: usize },
    /// Exactly this many requests per client.
    Fixed(usize),
}

/// One client's closed loop.
fn client_loop(
    addr: &str,
    seed: u64,
    client: usize,
    plan: Plan,
    total: &AtomicUsize,
    t0: Instant,
    tracer: &Tracer,
) -> Result<Vec<Done>, String> {
    let mut schedule = Schedule::new(seed, client);
    let mut conn = Client::connect(addr)?;
    let mut done = Vec::new();
    loop {
        let stop = match plan {
            Plan::Timed { seconds, min } => {
                t0.elapsed().as_secs_f64() >= seconds && total.load(Ordering::Relaxed) >= min
            }
            Plan::Fixed(n) => done.len() >= n,
        };
        if stop {
            return Ok(done);
        }
        let req = schedule.next_request();
        let id = ((client as u64) << 32) | done.len() as u64;
        let open = tracer.begin(&format!("request:{}", req.kind.name()), None, id);
        let parent = crate::trace::id_of(&open);
        let t = Instant::now();
        let response = match &req.spec {
            Some(spec) => {
                let bytes = tracer.span("codec.request_render", parent, id, || run_frame(spec));
                tracer.span("serve.call", parent, id, || conn.call(&bytes))
            }
            None => tracer.span("serve.connect_ping", parent, id, || {
                Client::connect(addr).and_then(|mut c| c.call(&verb_frame("ping")))
            }),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(open);
        total.fetch_add(1, Ordering::Relaxed);
        let failed = response.is_err();
        done.push(Done {
            index: done.len(),
            req,
            ms,
            response,
        });
        if failed {
            // A broken persistent connection: reconnect for the rest.
            conn = Client::connect(addr)?;
        }
    }
}

/// Everything the measured phase produced.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub done: Vec<Done>,
    pub wall_s: f64,
    pub rss_kib: u64,
    pub stats: Value,
    pub steps: u128,
    pub miss_compute_ms: Vec<f64>,
    pub ledger_files: usize,
    pub ledger_bytes: u64,
    pub largest_ledger: String,
    pub ping_us: Vec<f64>,
    /// Whether the flipped-byte self-test was caught.
    pub selftest_ok: bool,
}

/// Boots, runs the closed loop, checks every response against a cold
/// `Session::run` and the daemon's counters against the schedule.
pub fn measure(
    ctx: &Ctx,
    tracer: &Tracer,
    tally: &mut Tally,
    plan: Plan,
) -> Result<Measured, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let persist = ctx
        .tmp
        .join(format!("persist-{}", RUNS.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&persist);
    prepopulate(ctx.seed, &persist)?;

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (d, secs) = Daemon::boot(ctx, &persist)?;
        setup_s.push(secs);
        d.kill();
    }
    let (daemon, secs) = Daemon::boot(ctx, &persist)?;
    setup_s.push(secs);

    // Ping on a persistent connection, no compute: the framing floor.
    let mut ping_us = Vec::new();
    {
        let mut c = Client::connect(&daemon.addr)?;
        for _ in 0..20 {
            let t = Instant::now();
            let r = c.call(&verb_frame("ping"))?;
            ping_us.push(t.elapsed().as_secs_f64() * 1e6);
            tally.check(r == pong_frame(), || "ping answered something else".into());
        }
    }

    let total = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_client: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, total) = (&daemon.addr, &total);
                s.spawn(move || client_loop(addr, ctx.seed, c, plan, total, t0, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut done = Vec::new();
    for r in per_client {
        done.extend(r?);
    }

    let stats_text = Client::connect(&daemon.addr)?.call(&verb_frame("stats"))?;
    let stats = json::parse(std::str::from_utf8(&stats_text).map_err(|e| e.to_string())?)?;
    let rss_kib = crate::host::vm_hwm_kib(&daemon.pid()).ok_or("cannot read daemon VmHWM")?;
    tally.check(daemon.shutdown(), || {
        "daemon did not shut down cleanly".into()
    });

    // Oracles, outside the timed phase: one cold run per distinct spec.
    let mut oracle: HashMap<String, (Vec<u8>, u128)> = HashMap::new();
    let mut miss_compute_ms = Vec::new();
    let mut graphs = HashMap::new();
    let mut cold =
        |spec: &QuerySpec, timed: Option<&mut Vec<f64>>| -> Result<(Vec<u8>, u128), String> {
            let key = spec.to_json();
            if let Some(hit) = oracle.get(&key) {
                return Ok(hit.clone());
            }
            if !graphs.contains_key(&spec.graph.family) {
                graphs.insert(spec.graph.family.clone(), spec.graph.resolve()?);
            }
            let g = &graphs[&spec.graph.family];
            let t = Instant::now();
            let report = Session::new(spec.budget.clone()).run(g, &spec.query);
            if let Some(v) = timed {
                v.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let value = (frame(&report.to_json()), report_steps(&report));
            oracle.insert(key, value.clone());
            Ok(value)
        };
    let pong = pong_frame();
    let mut steps = 0u128;
    let mut expect = HashMap::new();
    let mut trials = 0u64;
    let mut sample = None;
    for d in &done {
        *expect.entry(d.req.kind).or_insert(0u64) += 1;
        let want = match (&d.req.spec, d.req.kind) {
            (None, _) => pong.clone(),
            (Some(spec), Kind::Miss) => {
                let (bytes, s) = cold(spec, Some(&mut miss_compute_ms))?;
                steps += s;
                trials += MISS_TRIALS as u64;
                bytes
            }
            (Some(spec), Kind::Extend) => {
                let (bytes, after) = cold(spec, None)?;
                let before = cold(d.req.extends.as_ref().expect("extension base"), None)?.1;
                steps += after - before;
                trials += EXTEND_STEP as u64;
                bytes
            }
            (Some(spec), _) => cold(spec, None)?.0,
        };
        check_response(tally, d.req.kind, &d.response, &want);
        if sample.is_none() && d.req.spec.is_some() {
            if let Ok(r) = &d.response {
                sample = Some((d.req.kind, crate::flipped(r), want));
            }
        }
    }
    // The self-test: the first run response with one byte flipped must
    // fail the same check.
    let mut scratch = Tally::default();
    if let Some((kind, bad, want)) = sample {
        check_response(&mut scratch, kind, &Ok(bad), &want);
    }
    let counter = |name: &str| stats.get(name).and_then(Value::as_u64);
    let scheduled = |k: Kind| expect.get(&k).copied().unwrap_or(0);
    for (name, want) in [
        ("hits", scheduled(Kind::Hit)),
        ("misses", scheduled(Kind::Miss)),
        ("extensions", scheduled(Kind::Extend)),
        ("trials_executed", trials),
        ("errors", 0),
        // Every scheduled request, the 20 pings, and the stats call itself.
        ("requests", done.len() as u64 + 20 + 1),
    ] {
        let got = counter(name);
        tally.check(got == Some(want), || {
            format!("stats.{name} = {got:?}, schedule says {want}")
        });
    }

    let mut ledger_files = 0;
    let mut ledger_bytes = 0;
    let mut largest_ledger = String::new();
    for entry in std::fs::read_dir(&persist).map_err(|e| e.to_string())? {
        let path: PathBuf = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            ledger_files += 1;
            ledger_bytes += text.len() as u64;
            if text.len() > largest_ledger.len() {
                largest_ledger = text;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&persist);
    Ok(Measured {
        setup_s,
        done,
        wall_s,
        rss_kib,
        stats,
        steps,
        miss_compute_ms,
        ledger_files,
        ledger_bytes,
        largest_ledger,
        ping_us,
        selftest_ok: scratch.failed == 1,
    })
}

/// The oracle for one scheduled request: its response frame equals
/// `want`, the cold `Session::run` bytes (or the pong frame).
pub fn check_response(
    tally: &mut Tally,
    kind: Kind,
    response: &Result<Vec<u8>, String>,
    want: &[u8],
) {
    tally.check(response.as_ref().is_ok_and(|r| r == want), || {
        format!(
            "{} response differs from the cold Session::run oracle ({})",
            kind.name(),
            response
                .as_ref()
                .err()
                .map_or("bytes differ", String::as_str)
        )
    });
}

/// Latencies of one request kind.
pub fn latencies(done: &[Done], kind: Kind) -> Vec<f64> {
    done.iter()
        .filter(|d| d.req.kind == kind)
        .map(|d| d.ms)
        .collect()
}

/// The untraced run's end-to-end metrics.
pub fn e2e(ctx: &Ctx) -> Result<crate::Outcome, String> {
    let tracer = Tracer::new(false);
    let mut out = crate::Outcome::default();
    let plan = Plan::Timed {
        seconds: ctx.seconds,
        min: ctx.min_requests,
    };
    let m = measure(ctx, &tracer, &mut out.tally, plan)?;
    let all: Vec<f64> = m.done.iter().map(|d| d.ms).collect();
    out.end_to_end(&m.setup_s, m.steps, m.wall_s, &all, m.rss_kib);
    for kind in Kind::ALL {
        let ms = crate::stats::sorted(&latencies(&m.done, kind));
        if ms.is_empty() {
            continue;
        }
        out.samples.push((kind.name().into(), ms.len()));
        let top = crate::stats::highest_reportable(ms.len(), &[900, 990])
            .map_or("none".to_string(), |pm| {
                format!("p{} {:.3} ms", pm / 10, crate::stats::percentile(&ms, pm))
            });
        out.notes.push(format!(
            "{:<8} p50 {:>9.3} ms  highest reportable {top} (n={})",
            kind.name(),
            crate::stats::percentile(&ms, 500),
            ms.len()
        ));
    }
    out.notes.push(format!(
        "ping on a persistent connection: median {:.1} us (n={})",
        median(&m.ping_us),
        m.ping_us.len()
    ));
    // A timed run's length varies, so the digest covers the schedule
    // prefix every run completes.
    for d in m.done.iter().filter(|d| d.index < DIGEST_PREFIX) {
        if let Ok(r) = &d.response {
            out.reports.push_str(&String::from_utf8_lossy(r));
        }
    }
    out.selftest_ok = m.selftest_ok;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_response_or_an_error_fails_the_response_check() {
        let want = frame("{\"schema\": \"x\"}");
        let mut tally = Tally::default();
        check_response(&mut tally, Kind::Hit, &Ok(want.clone()), &want);
        assert_eq!(tally.failed, 0);
        check_response(&mut tally, Kind::Hit, &Ok(crate::flipped(&want)), &want);
        check_response(&mut tally, Kind::Miss, &Err("reset".into()), &want);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn every_block_holds_the_mix_and_extensions_grow_per_key() {
        for client in 0..CLIENTS {
            let mut s = Schedule::new(9, client);
            let reqs: Vec<Request> = (0..40).map(|_| s.next_request()).collect();
            for block in reqs.chunks(10) {
                let count = |k| block.iter().filter(|r| r.kind == k).count();
                assert_eq!(
                    [Kind::Hit, Kind::Extend, Kind::Miss, Kind::Connect].map(count),
                    [4, 2, 2, 2]
                );
            }
            let mut boundary: HashMap<u64, usize> = HashMap::new();
            for r in reqs.iter().filter(|r| r.kind == Kind::Extend) {
                let (spec, base) = (r.spec.as_ref().unwrap(), r.extends.as_ref().unwrap());
                let seed = spec.budget.seed;
                let at = boundary.entry(seed).or_insert(HIT_TRIALS);
                assert_eq!(base.budget.trials, *at);
                assert_eq!(spec.budget.trials, *at + EXTEND_STEP);
                *at += EXTEND_STEP;
                // A client extends only its own half of the hit set.
                let key = hit_seeds(9).iter().position(|&h| h == seed).unwrap();
                assert_eq!(key % CLIENTS, client);
            }
        }
    }
}
