//! The served workloads (serve-light, serve-heavy), the checks of every
//! served result against the library, and the serving-layer probes.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use lintra::engine::SweepCache;
use lintra::linsys::count::{op_count, TrivialityRule};
use lintra::matrix::rng::SplitMix64;
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, TechConfig};
use lintra::suite::by_name;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::{
    start, start_router, Client, Journal, RecordKind, RetryPolicy, RouterConfig, RouterHandle,
    ServerConfig, ServerHandle,
};

use crate::compile;
use crate::loadgen::{
    closed_loop, ladder_continues, ladder_rates, nproc, open_loop, schedule, slo_rate,
    sustained_rate, LoopRun, Sample, Step, SLO_MS,
};
use crate::mix::{heavy_request, heavy_tuples, light_plan, stream_seed, HeavyPlan, Planned};
use crate::report::Report;
use crate::stats::{geomean, median, pct};
use crate::trace::Trace;
use crate::Args;

/// How long set-up may wait for a server to answer or a follower to
/// catch up before the run gives up.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// serve-heavy set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// First rung of the serve-light ladder, requests per second.
const FIRST_RATE: u32 = 40;

/// Clusters alive at once: each serves an equal share of a segment.
const BATCH: usize = 5;

/// Consecutive segments of the first ladder step, each on fresh
/// clusters, so the step samples `BATCH · FIRST_BATCHES` start-ups.
const FIRST_BATCHES: usize = 8;

/// Rungs after the first last this long.
const LADDER_STEP_S: u64 = 5;

/// Rungs at most.
const LADDER_STEPS: usize = 5;

/// Rate and length of the probe burst that traced runs without their own
/// routed traffic send through probe clusters.
const BURST_RATE: u32 = 40;
const BURST_S: u64 = 3;

fn e(x: impl std::fmt::Display) -> String {
    x.to_string()
}

/// A client that tries once: a failure is counted, never retried.
fn client(addr: &str) -> Client {
    Client::with_policy(
        addr,
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
    )
}

/// Polls `ready` every few milliseconds until it holds.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let t = Instant::now();
    while !ready() {
        if t.elapsed() > READY_TIMEOUT {
            return Err(format!("timed out waiting for {what}"));
        }
        thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn ping_ok(addr: &str) -> bool {
    client(addr)
        .request(&WireRequest::new("ready", WireOp::Ping))
        .is_ok_and(|r| r.outcome.is_ok())
}

/// The production path: a router fronting one shard group of a durable
/// primary (journal in `dir`) and the follower it replicates to.
pub struct Cluster {
    primary: ServerHandle,
    follower: ServerHandle,
    router: RouterHandle,
}

impl Cluster {
    /// Starts the three and warms them ([`Cluster::warm`]).
    fn start(dir: &Path) -> Result<Cluster, String> {
        let jobs = Some(nproc());
        let primary = start(ServerConfig {
            journal_dir: Some(dir.join("primary")),
            jobs,
            ..ServerConfig::default()
        })
        .map_err(e)?;
        let follower = start(ServerConfig {
            journal_dir: Some(dir.join("follower")),
            replica_of: Some(primary.addr().to_string()),
            jobs,
            ..ServerConfig::default()
        })
        .map_err(e)?;
        let router = start_router(RouterConfig {
            shards: vec![vec![
                primary.addr().to_string(),
                follower.addr().to_string(),
            ]],
            ..RouterConfig::default()
        })
        .map_err(e)?;
        let c = Cluster {
            primary,
            follower,
            router,
        };
        match c.warm() {
            Ok(()) => Ok(c),
            Err(err) => {
                c.shutdown();
                Err(err)
            }
        }
    }

    /// Waits for a routed `ping`, sends one keyed `single`, `multi` and
    /// `sweep`, and waits for the follower to hold every journal record.
    fn warm(&self) -> Result<(), String> {
        wait_until("a routed ping", || ping_ok(self.router.addr()))?;
        let warm = client(self.router.addr());
        let optimize = |strategy: &str| WireOp::Optimize {
            design: "ellip".to_string(),
            strategy: strategy.to_string(),
            v0: 3.5,
            processors: None,
        };
        let sweep = WireOp::Sweep {
            design: "ellip".to_string(),
            max_i: 16,
        };
        for (k, op) in [optimize("single"), optimize("multi"), sweep]
            .into_iter()
            .enumerate()
        {
            let req = WireRequest::new(format!("warm{k}"), op).with_request_id(format!("warm-{k}"));
            let resp = warm.request(&req).map_err(e)?;
            if let Err(f) = resp.outcome {
                return Err(format!("warm-up request failed: {} {}", f.code, f.message));
            }
        }
        wait_until("the follower to catch up", || self.lag() == Some(0))
    }

    /// Journal records the follower is behind the primary.
    fn lag(&self) -> Option<u64> {
        let p = self.primary.role_info()?.seq;
        let f = self.follower.role_info()?.seq;
        Some(p.saturating_sub(f))
    }

    /// Drains the router, then the follower, then the primary.
    fn shutdown(self) {
        self.router.shutdown();
        self.follower.shutdown();
        self.primary.shutdown();
    }
}

/// Counter totals over a set of clusters (primaries and routers).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    connections: u64,
    answered: u64,
    shed: u64,
    deduped: u64,
    cache_hits: u64,
    cache_misses: u64,
    routed: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
}

impl Counters {
    fn of(clusters: &[Cluster]) -> Counters {
        let mut t = Counters::default();
        for c in clusters {
            let s = c.primary.stats();
            let cache = c.primary.cache_stats();
            let (routed, _, retries, _, _, hedges, hedge_wins) = c.router.stats();
            t.connections += s.connections;
            t.answered += s.requests_ok + s.requests_failed;
            t.shed += s.shed;
            t.deduped += s.deduped;
            t.cache_hits += cache.hits;
            t.cache_misses += cache.misses;
            t.routed += routed;
            t.retries += retries;
            t.hedges += hedges;
            t.hedge_wins += hedge_wins;
        }
        t
    }

    fn plus(self, b: Counters) -> Counters {
        Counters {
            connections: self.connections + b.connections,
            answered: self.answered + b.answered,
            shed: self.shed + b.shed,
            deduped: self.deduped + b.deduped,
            cache_hits: self.cache_hits + b.cache_hits,
            cache_misses: self.cache_misses + b.cache_misses,
            routed: self.routed + b.routed,
            retries: self.retries + b.retries,
            hedges: self.hedges + b.hedges,
            hedge_wins: self.hedge_wins + b.hedge_wins,
        }
    }

    fn since(self, b: Counters) -> Counters {
        Counters {
            connections: self.connections - b.connections,
            answered: self.answered - b.answered,
            shed: self.shed - b.shed,
            deduped: self.deduped - b.deduped,
            cache_hits: self.cache_hits - b.cache_hits,
            cache_misses: self.cache_misses - b.cache_misses,
            routed: self.routed - b.routed,
            retries: self.retries - b.retries,
            hedges: self.hedges - b.hedges,
            hedge_wins: self.hedge_wins - b.hedge_wins,
        }
    }
}

/// Largest follower lag over the clusters (`None` if one cannot say).
fn max_lag(clusters: &[Cluster]) -> Option<u64> {
    clusters
        .iter()
        .map(Cluster::lag)
        .try_fold(0, |m, l| l.map(|l| m.max(l)))
}

/// In-process reference answers, computed with the same library entry
/// points the server uses; sweeps share one cache per design, as on the
/// server.
#[derive(Default)]
struct Reference {
    caches: HashMap<String, SweepCache>,
}

impl Reference {
    /// The `result` object the server must answer `req` with, and how
    /// long computing it took. `None` for `ping`.
    fn answer(&mut self, req: &WireRequest) -> Result<Option<(Json, Duration)>, String> {
        // The server sees the request as parsed from its wire line.
        let req = WireRequest::parse(&req.render_line())?;
        let t = Instant::now();
        let json = match &req.op {
            WireOp::Ping => return Ok(None),
            WireOp::Optimize {
                design,
                strategy,
                v0,
                processors,
            } => {
                let d = by_name(design).ok_or_else(|| format!("unknown design {design}"))?;
                let tech = TechConfig::dac96(*v0);
                let name = Json::Str(d.name.to_string());
                match strategy.as_str() {
                    "single" => {
                        let r = single::optimize(&d.system, &tech).map_err(e)?;
                        Json::obj([
                            ("strategy", Json::Str("single".to_string())),
                            ("design", name),
                            ("unfolding", Json::Num(r.real.unfolding as f64)),
                            ("speedup", Json::Num(r.real.speedup)),
                            ("voltage", Json::Num(r.real.scaling.voltage)),
                            ("power_reduction", Json::Num(r.real.power_reduction())),
                            ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                        ])
                    }
                    "multi" => {
                        let selection = match processors {
                            Some(n) => ProcessorSelection::SearchBest { max: *n },
                            None => ProcessorSelection::StatesCount,
                        };
                        let r = multi::optimize(&d.system, &tech, selection).map_err(e)?;
                        Json::obj([
                            ("strategy", Json::Str("multi".to_string())),
                            ("design", name),
                            ("processors", Json::Num(r.processors as f64)),
                            ("unfolding", Json::Num(r.unfolding as f64)),
                            ("speedup", Json::Num(r.speedup)),
                            ("voltage", Json::Num(r.scaling.voltage)),
                            ("power_reduction", Json::Num(r.power_reduction())),
                            ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                        ])
                    }
                    "asic" => {
                        let r = asic::optimize(&d.system, &tech, &asic::AsicConfig::default())
                            .map_err(e)?;
                        Json::obj([
                            ("strategy", Json::Str("asic".to_string())),
                            ("design", name),
                            ("unfolding", Json::Num(f64::from(r.unfolding))),
                            ("voltage", Json::Num(r.voltage)),
                            ("muls_removed", Json::Num(r.mcm.muls_removed as f64)),
                            ("improvement", Json::Num(r.improvement())),
                            ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                        ])
                    }
                    "egraph" => {
                        let r = saturate::optimize(
                            &d.system,
                            &tech,
                            &saturate::SaturateConfig::default(),
                        )
                        .map_err(e)?;
                        Json::obj([
                            ("strategy", Json::Str("egraph".to_string())),
                            ("design", name),
                            ("unfolding", Json::Num(f64::from(r.unfolding))),
                            ("voltage", Json::Num(r.voltage)),
                            ("improvement", Json::Num(r.improvement())),
                            ("vs_script", Json::Num(r.vs_script())),
                            ("saturated", Json::Bool(r.stats.saturated())),
                            ("diagnostics", Json::Num(r.diagnostics.len() as f64)),
                        ])
                    }
                    other => return Err(format!("no reference for strategy {other}")),
                }
            }
            WireOp::Sweep { design, max_i } => {
                let d = by_name(design).ok_or_else(|| format!("unknown design {design}"))?;
                let cache = self
                    .caches
                    .entry(d.name.to_string())
                    .or_insert_with(|| SweepCache::new(&d.system));
                let mut rows = Vec::new();
                for i in 0..=*max_i {
                    let u = cache.unfolded(i).map_err(e)?;
                    let c = op_count(&u.system, TrivialityRule::ZeroOne);
                    let n = f64::from(i + 1);
                    rows.push(Json::Arr(vec![
                        Json::Num(f64::from(i)),
                        Json::Num(c.muls as f64 / n),
                        Json::Num(c.adds as f64 / n),
                    ]));
                }
                Json::obj([
                    ("design", Json::Str(d.name.to_string())),
                    ("rows", Json::Arr(rows)),
                ])
            }
            WireOp::Tables { .. } => {
                return Err("tables requests are not part of any workload".to_string())
            }
        };
        Ok(Some((json, t.elapsed())))
    }
}

/// What one open-loop step through a cluster produced.
struct LightStep {
    plan: Vec<Planned>,
    run: LoopRun,
    responses: Vec<Option<Answer>>,
    step: Step,
    /// Samples per consecutive segment, in order.
    segments: Vec<usize>,
    /// Counter deltas over the step, summed over the clusters.
    counters: Counters,
    lag_max: u64,
    catchup_ms: f64,
    spans: usize,
}

/// Sends `n` serve-light requests of request stream `stream` through the
/// routers at `rate` per second, sampling replication lag meanwhile,
/// then times the followers' catch-up after the last answer. The
/// requests are split into equal consecutive shares, one per cluster; a
/// re-sent line goes to the cluster that answered it first, at least
/// 0.5 s after the original fell due and never before its answer.
fn light_segment(
    clusters: &[Cluster],
    seed: u64,
    stream: usize,
    rate: u32,
    n: usize,
    trace: &Trace,
) -> Result<LightStep, String> {
    let plan = light_plan(seed, stream, n, (rate / 2).max(1) as usize);
    let segment = |k: usize| k * clusters.len() / n.max(1);
    let target: Vec<usize> = plan
        .iter()
        .enumerate()
        .map(|(k, p)| segment(p.resend_of.unwrap_or(k)))
        .collect();
    let clients: Vec<Client> = clusters.iter().map(|c| client(c.router.addr())).collect();
    let slots: Vec<Mutex<Option<Answer>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let spans_before = trace.len();
    let root = trace.open("segment", None, stream as u64);
    let before = Counters::of(clusters);
    let lag_max = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let run = thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(lag) = max_lag(clusters) {
                    lag_max.fetch_max(lag, Ordering::SeqCst);
                }
                thread::sleep(Duration::from_millis(20));
            }
        });
        let run = open_loop(&schedule(n, f64::from(rate)), nproc(), |k| {
            if let Some(j) = plan[k].resend_of {
                // Re-send only a settled line: a concurrent duplicate is
                // refused by design, and that is not what this measures.
                while slots[j].lock().expect("slot lock").is_none() {
                    thread::sleep(Duration::from_millis(1));
                }
            }
            let req = &plan[k].req;
            let id = trace.open(req.op.name(), root, k as u64);
            let resp = clients[target[k]].request(req).map_err(e);
            trace.close(id);
            let ok = resp.as_ref().is_ok_and(|r| r.outcome.is_ok());
            *slots[k].lock().expect("slot lock") = Some(resp);
            ok
        });
        done.store(true, Ordering::SeqCst);
        run
    });
    trace.close(root);
    let t = Instant::now();
    wait_until("the followers to catch up", || max_lag(clusters) == Some(0))?;
    let catchup_ms = t.elapsed().as_secs_f64() * 1e3;
    let counters = Counters::of(clusters).since(before);
    let step_verdict = Step::from_run(rate, &run);
    Ok(LightStep {
        plan,
        step: step_verdict,
        run,
        responses: slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock"))
            .collect(),
        segments: vec![n],
        counters,
        lag_max: lag_max.load(Ordering::SeqCst),
        catchup_ms,
        spans: trace.len() - spans_before,
    })
}

/// Drains every cluster, all at once: each router's drain waits out its
/// prober's sleep, and there is no reason to pay that one by one.
fn shutdown_all(clusters: Vec<Cluster>) {
    thread::scope(|s| {
        for c in clusters {
            s.spawn(move || c.shutdown());
        }
    });
}

/// Starts `k` clusters under `dir`, adding each one's set-up time to
/// `setups`.
fn start_clusters(dir: &Path, k: usize, setups: &mut Vec<f64>) -> Result<Vec<Cluster>, String> {
    let mut clusters = Vec::new();
    for i in 0..k {
        let t = Instant::now();
        match Cluster::start(&dir.join(format!("cluster-{i}"))) {
            Ok(c) => clusters.push(c),
            Err(err) => {
                shutdown_all(clusters);
                return Err(err);
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    Ok(clusters)
}

/// One ladder step of `secs` seconds at `rate`, run as `batches`
/// consecutive segments. Each segment gets [`BATCH`] fresh clusters,
/// started before it (set-up times go to `setups`) and drained after
/// it. A router forwards to its primary after a wait that the two
/// accept loops' polling phases fix at start-up, anywhere from 0 to one
/// poll period; pooling many clusters averages that wait instead of
/// drawing it once per run, and keeping few alive at once keeps their
/// background probing off the measurement.
fn light_step(
    args: &Args,
    step: usize,
    rate: u32,
    secs: u64,
    batches: usize,
    setups: &mut Vec<f64>,
    trace: &Trace,
) -> Result<LightStep, String> {
    let n = (u64::from(rate) * secs) as usize;
    let mut parts: Vec<LightStep> = Vec::new();
    for b in 0..batches {
        let share = n * (b + 1) / batches - n * b / batches;
        let dir = args.tmp.join(format!("step{step}-batch{b}"));
        let clusters = start_clusters(&dir, BATCH, setups)?;
        let part = light_segment(&clusters, args.seed, step * 100 + b, rate, share, trace);
        shutdown_all(clusters);
        parts.push(part?);
    }
    let mut merged = LightStep {
        plan: Vec::new(),
        run: LoopRun {
            samples: Vec::new(),
            workers: 0,
            peak_in_flight: 0,
            wall: Duration::ZERO,
        },
        responses: Vec::new(),
        step: Step::from_run(rate, &parts[0].run),
        segments: Vec::new(),
        counters: Counters::default(),
        lag_max: 0,
        catchup_ms: 0.0,
        spans: 0,
    };
    for part in parts {
        let offset = merged.plan.len();
        merged.plan.extend(part.plan.into_iter().map(|mut p| {
            p.resend_of = p.resend_of.map(|j| j + offset);
            p
        }));
        merged
            .run
            .samples
            .extend(part.run.samples.into_iter().map(|mut smp| {
                smp.index += offset;
                smp
            }));
        merged.run.workers = merged.run.workers.max(part.run.workers);
        merged.run.peak_in_flight = merged.run.peak_in_flight.max(part.run.peak_in_flight);
        merged.run.wall += part.run.wall;
        merged.responses.extend(part.responses);
        merged.segments.extend(part.segments);
        merged.counters = merged.counters.plus(part.counters);
        merged.lag_max = merged.lag_max.max(part.lag_max);
        merged.catchup_ms = merged.catchup_ms.max(part.catchup_ms);
        merged.spans += part.spans;
    }
    merged.step = Step::from_run(rate, &merged.run);
    Ok(merged)
}

/// A served answer, or why none arrived.
type Answer = Result<WireResponse, String>;

fn line_of(resp: &Option<Answer>) -> Option<String> {
    match resp {
        Some(Ok(r)) => Some(r.render_line()),
        _ => None,
    }
}

/// What the checks of a serve-light step found.
struct LightChecked {
    exec_ms: Vec<f64>,
    served_ms: Vec<f64>,
    /// `power_reduction` answers by (design, strategy).
    power_reductions: HashMap<(String, String), Vec<f64>>,
    resends: usize,
}

impl LightChecked {
    /// Geometric mean over (design, strategy) cells of each cell's
    /// geometric-mean `power_reduction`: every cell weighs the same, so
    /// the seed's mix of designs does not move it.
    fn energy_gain(&self) -> f64 {
        let cells: Vec<f64> = self.power_reductions.values().map(|v| geomean(v)).collect();
        geomean(&cells)
    }
}

/// Checks every answer of a step: each successful `result` equals the
/// in-process reference, and each re-sent line got the bytes of its
/// first answer. Records failures in `rep`.
fn check_light(
    st: &LightStep,
    reference: &mut Reference,
    rep: &mut Report,
) -> Result<LightChecked, String> {
    let mut out = LightChecked {
        exec_ms: Vec::new(),
        served_ms: Vec::new(),
        power_reductions: HashMap::new(),
        resends: 0,
    };
    for (k, (p, resp)) in st.plan.iter().zip(&st.responses).enumerate() {
        if let Some(j) = p.resend_of {
            out.resends += 1;
            rep.check(
                line_of(resp) == line_of(&st.responses[j]),
                format!(
                    "re-sent request {} was not answered with its first answer's bytes",
                    p.req.id
                ),
            );
            continue;
        }
        let Some(Ok(r)) = resp else { continue };
        let Ok(result) = &r.outcome else { continue };
        if let Some((want, took)) = reference.answer(&p.req)? {
            rep.check(
                result.render_compact() == want.render_compact(),
                format!(
                    "request {} answered {} but the library gives {}",
                    p.req.id,
                    result.render_compact(),
                    want.render_compact()
                ),
            );
            out.exec_ms.push(took.as_secs_f64() * 1e3);
            out.served_ms.push(st.run.samples[k].latency_ms());
            if let (
                Some(x),
                WireOp::Optimize {
                    design, strategy, ..
                },
            ) = (
                result.get("power_reduction").and_then(Json::as_num),
                &p.req.op,
            ) {
                out.power_reductions
                    .entry((design.clone(), strategy.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

/// Share of requests whose request (ignoring ids) was already answered
/// earlier in the sequence.
fn repeat_share(reqs: &[WireRequest]) -> f64 {
    let mut seen = HashSet::new();
    let repeats = reqs
        .iter()
        .filter(|r| {
            let mut key = (*r).clone();
            key.id.clear();
            key.request_id = None;
            !seen.insert(key.render_line())
        })
        .count();
    repeats as f64 / reqs.len().max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The router and replication per-layer metrics of a step.
fn set_routed_layers(st: &LightStep, rep: &mut Report, source: &str) {
    let c = st.counters;
    rep.set(
        "router.retry_ratio",
        ratio(c.retries, c.routed),
        format!("{source}; {} routed", c.routed),
    );
    rep.set(
        "router.hedge_ratio",
        ratio(c.hedges, c.routed),
        format!("{source}; {} hedges", c.hedges),
    );
    rep.set(
        "router.hedge_win_ratio",
        ratio(c.hedge_wins, c.hedges),
        format!("{source}; of hedges"),
    );
    rep.set(
        "replicate.lag_records.max",
        st.lag_max as f64,
        format!("{source}; sampled every 20 ms"),
    );
    rep.set(
        "replicate.catchup_ms",
        st.catchup_ms,
        format!("{source}; last answer to followers caught up"),
    );
}

/// The server-side per-layer metrics of a step, plus exec vs served.
fn set_light_server_layers(st: &LightStep, checked: &LightChecked, rep: &mut Report, source: &str) {
    let c = st.counters;
    rep.set(
        "serve.connections_per_request",
        ratio(c.connections, c.answered),
        format!("{source}; primary accepts incl. router probes / requests answered"),
    );
    rep.set(
        "serve.shed_ratio",
        ratio(c.shed, st.plan.len() as u64),
        source,
    );
    rep.set(
        "serve.dedup_hit_ratio",
        ratio(c.deduped, checked.resends as u64),
        format!("{source}; {} re-sent keys", checked.resends),
    );
    rep.set(
        "engine.cache.hit_rate",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        format!("{source}; {} lookups", c.cache_hits + c.cache_misses),
    );
    let reqs: Vec<WireRequest> = st.plan.iter().map(|p| p.req.clone()).collect();
    rep.set(
        "serve.repeat_share",
        repeat_share(&reqs),
        format!("{source}; sweeps and re-sends repeat"),
    );
    let late: Vec<f64> = st.run.samples.iter().map(Sample::late_ms).collect();
    let lp = pct(&late, 990).expect("samples");
    rep.set(
        "loadgen.late_ms.p99",
        lp.value,
        format!("{source}; n={}, {} beyond", lp.n, lp.beyond),
    );
    let exec = median(&checked.exec_ms);
    rep.set(
        "exec.ms",
        exec,
        format!(
            "{source}; median in-process time of {} compute requests",
            checked.exec_ms.len()
        ),
    );
    rep.set(
        "serve.overhead.ms",
        median(
            &checked
                .served_ms
                .iter()
                .zip(&checked.exec_ms)
                .map(|(s, x)| s - x)
                .collect::<Vec<_>>(),
        ),
        format!("{source}; median over requests of served latency - in-process time"),
    );
}

/// Probe pings per kind.
const PINGS: usize = 60;

/// Fresh and reused `ping` round trips on raw connections, cycling
/// over `addrs` so several servers' polling phases are sampled. Each
/// ping waits a seeded random 0–25 ms first, so it arrives at a random
/// phase of the accept polling, as open-loop requests do. With `reuse`,
/// each address keeps one connection, and the round trip that opened it
/// is not counted.
fn ping_times(addrs: &[String], reuse: bool, seed: u64) -> Result<Vec<f64>, String> {
    let line = WireRequest::new("probe", WireOp::Ping).render_line();
    let mut rng = SplitMix64::new(stream_seed(seed, 0x9146));
    let mut out = Vec::new();
    let mut conns: Vec<Option<(TcpStream, BufReader<TcpStream>)>> =
        addrs.iter().map(|_| None).collect();
    let mut k = 0;
    while out.len() < PINGS {
        let i = k % addrs.len();
        k += 1;
        thread::sleep(Duration::from_secs_f64(rng.range_f64(0.0, 0.025)));
        let t = Instant::now();
        let opened = conns[i].is_none() || !reuse;
        if opened {
            let s = TcpStream::connect(&addrs[i]).map_err(e)?;
            let r = BufReader::new(s.try_clone().map_err(e)?);
            conns[i] = Some((s, r));
        }
        let (s, r) = conns[i].as_mut().expect("connection just opened");
        s.write_all(line.as_bytes()).map_err(e)?;
        let mut resp = String::new();
        r.read_line(&mut resp).map_err(e)?;
        if !WireResponse::parse(&resp).is_ok_and(|r| r.outcome.is_ok()) {
            return Err(format!("probe ping failed: {resp}"));
        }
        if !(reuse && opened) {
            out.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(out)
}

/// The transport, router-hop and journal probes of a traced run; the
/// journal appends the workload's own request lines.
fn transport_probes(
    clusters: &[Cluster],
    frames: &[WireRequest],
    args: &Args,
    dir: &Path,
    trace: &Trace,
    rep: &mut Report,
) -> Result<(), String> {
    let root = trace.open("serve.probes", None, 0);
    let primaries: Vec<String> = clusters
        .iter()
        .map(|c| c.primary.addr().to_string())
        .collect();
    let routers: Vec<String> = clusters
        .iter()
        .map(|c| c.router.addr().to_string())
        .collect();
    let fresh = median(&ping_times(&primaries, false, args.seed)?);
    let reused = median(&ping_times(&primaries, true, args.seed)?);
    let routed = median(&ping_times(&routers, false, args.seed)?);
    let over = format!("median of {PINGS} over {} clusters", clusters.len());
    rep.set(
        "serve.ping_fresh.ms",
        fresh,
        format!("{over}, new connection to the primary"),
    );
    rep.set(
        "serve.ping_reused.ms",
        reused,
        format!("{over}, one kept connection each"),
    );
    rep.set("serve.connect.ms", fresh - reused, "fresh - reused");
    rep.set(
        "router.ping_fresh.ms",
        routed,
        format!("{over}, new connection to the router"),
    );
    rep.set(
        "router.hop.ms",
        routed - fresh,
        "routed fresh ping - direct fresh ping",
    );

    let (mut journal, _) = Journal::open_dir(&dir.join("journal-probe")).map_err(e)?;
    let lines: Vec<String> = frames.iter().map(WireRequest::render_line).collect();
    let mut appends = Vec::with_capacity(1000);
    for k in 0..1000 {
        let line = &lines[k % lines.len()];
        let t = Instant::now();
        journal
            .append(RecordKind::Admit, &format!("probe-{k}"), line.trim_end())
            .map_err(e)?;
        appends.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let p50 = pct(&appends, 500).expect("appends");
    let p99 = pct(&appends, 990).expect("appends");
    rep.set("journal.append.p50_ms", p50.value, "append+fsync, n=1000");
    rep.set(
        "journal.append.p99_ms",
        p99.value,
        format!("append+fsync, n={}, {} beyond", p99.n, p99.beyond),
    );
    trace.close(root);
    Ok(())
}

/// Wire codec cost on the workload's own frames and answers.
fn wire_probes(
    frames: &[WireRequest],
    responses: &[WireResponse],
    rep: &mut Report,
) -> Result<(), String> {
    let lines: Vec<String> = frames.iter().map(WireRequest::render_line).collect();
    let rendered: Vec<String> = responses.iter().map(WireResponse::render_line).collect();
    let (mut parse, mut render) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        for l in &lines {
            std::hint::black_box(WireRequest::parse(l)?);
        }
        parse.push(t.elapsed().as_secs_f64() * 1e6 / lines.len() as f64);
        let t = Instant::now();
        for r in responses {
            std::hint::black_box(r.render_line());
        }
        render.push(t.elapsed().as_secs_f64() * 1e6 / responses.len().max(1) as f64);
    }
    rep.set(
        "wire.parse.us",
        median(&parse),
        format!("per frame, {} workload frames", lines.len()),
    );
    rep.set(
        "wire.render.us",
        median(&render),
        format!(
            "per response, {} workload responses, {} bytes",
            responses.len(),
            rendered.iter().map(String::len).sum::<usize>()
        ),
    );
    Ok(())
}

fn ok_responses(responses: &[Option<Answer>]) -> Vec<WireResponse> {
    responses
        .iter()
        .filter_map(|r| match r {
            Some(Ok(r)) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

/// What a traced run takes from the probe clusters.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    /// Transport and journal probes only: the run's own traffic went
    /// through routers and journals.
    Transport,
    /// Also a serve-light burst for the router and replication metrics.
    Routed,
    /// Also every server, wire and loadgen metric from the burst: the
    /// run served nothing itself.
    All,
}

/// Starts [`BATCH`] probe clusters, sends a short serve-light burst
/// through them unless only the transport is probed, and runs the
/// transport and journal probes. The journal appends `frames`, or the
/// burst's frames when there is a burst.
fn probe_clusters(
    args: &Args,
    trace: &Trace,
    rep: &mut Report,
    probe: Probe,
    frames: &[WireRequest],
) -> Result<(), String> {
    let dir = args.tmp.join("probe");
    let clusters = start_clusters(&dir, BATCH, &mut Vec::new())?;
    let res = (|| {
        let mut frames = frames.to_vec();
        if probe != Probe::Transport {
            let n = (BURST_RATE as u64 * BURST_S) as usize;
            let st = light_segment(&clusters, args.seed, 99, BURST_RATE, n, trace)?;
            let checked = check_light(&st, &mut Reference::default(), rep)?;
            let source = "probe burst";
            set_routed_layers(&st, rep, source);
            frames = st.plan.iter().map(|p| p.req.clone()).collect();
            if probe == Probe::All {
                set_light_server_layers(&st, &checked, rep, source);
                wire_probes(&frames, &ok_responses(&st.responses), rep)?;
            }
        }
        transport_probes(&clusters, &frames, args, &dir, trace, rep)
    })();
    shutdown_all(clusters);
    res
}

/// The serving layers of a traced compile-suite run, which serves
/// nothing itself: all of them come from probe clusters and a burst.
pub fn probe_serving_layers(args: &Args, trace: &Trace, rep: &mut Report) -> Result<(), String> {
    probe_clusters(args, trace, rep, Probe::All, &[])
}

/// serve-light: an open-loop rate ladder through routers in front of
/// durable primaries with followers.
pub fn light(args: &Args, trace: &Trace, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut steps: Vec<LightStep> = Vec::new();
    for (s, rate) in ladder_rates(FIRST_RATE, LADDER_STEPS)
        .into_iter()
        .enumerate()
    {
        let (secs, batches) = if s == 0 {
            (
                args.seconds.saturating_sub(LADDER_STEP_S).max(1),
                FIRST_BATCHES,
            )
        } else {
            (LADDER_STEP_S, 1)
        };
        steps.push(light_step(
            args,
            s,
            rate,
            secs,
            batches,
            &mut setups,
            trace,
        )?);
        let verdicts: Vec<Step> = steps.iter().map(|st| st.step).collect();
        if !ladder_continues(&verdicts) {
            break;
        }
    }
    rep.set(
        "setup_s",
        median(&setups),
        format!(
            "median of {} cluster set-ups: router + durable primary + follower up, \
             routed ping answered, warm-up replicated",
            setups.len()
        ),
    );
    let verdicts: Vec<Step> = steps.iter().map(|st| st.step).collect();
    let mut reference = Reference::default();
    let mut checked = Vec::new();
    for st in &steps {
        checked.push(check_light(st, &mut reference, rep)?);
    }
    for st in &steps {
        rep.attempted += st.run.samples.len() as u64;
        rep.failed += st.run.samples.iter().filter(|s| !s.ok).count() as u64;
        let v = st.step;
        rep.line(format!(
            "step {} rps: n={} failed={} p{:.1}={:.2} ms ({} beyond) lateness {} -> {}",
            v.rate,
            st.run.samples.len(),
            v.failed,
            v.tail_level as f64 / 10.0,
            v.tail.value,
            v.tail.beyond,
            if v.late_grows { "grows" } else { "steady" },
            match (v.passes(), v.sustained()) {
                (true, _) => "meets SLO",
                (false, true) => "sustained, misses SLO",
                (false, false) => "not sustained",
            },
        ));
        rep.check(
            st.run.workers <= nproc() && st.run.peak_in_flight <= nproc(),
            "load generator exceeded nproc threads or connections",
        );
    }
    let first = &steps[0];
    let lat: Vec<f64> = first.run.samples.iter().map(Sample::latency_ms).collect();
    let p50 = pct(&lat, 500).expect("samples");
    let p90 = pct(&lat, 900).expect("samples");
    let p99 = pct(&lat, 990).expect("samples");
    rep.line(format!(
        "p99_ms at {FIRST_RATE} rps: {}",
        if p99.reportable() {
            format!("{:.4} ms (n={}, {} beyond)", p99.value, p99.n, p99.beyond)
        } else {
            format!("not reported: n={}, only {} beyond", p99.n, p99.beyond)
        }
    ));
    let mut by_op: Vec<(&str, Vec<f64>)> = Vec::new();
    for (p, smp) in first.plan.iter().zip(&first.run.samples) {
        let op = match &p.req.op {
            WireOp::Optimize { strategy, .. } => strategy.as_str(),
            other => other.name(),
        };
        match by_op.iter_mut().find(|(o, _)| *o == op) {
            Some((_, v)) => v.push(smp.latency_ms()),
            None => by_op.push((op, vec![smp.latency_ms()])),
        }
    }
    rep.line(format!(
        "{FIRST_RATE} rps p50 by op: {}",
        by_op
            .iter()
            .map(|(o, v)| format!("{o} {:.2} ms (n={})", median(v), v.len()))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    // Per-segment p50 and p90; the gated values are their medians, so a
    // burst of host noise in a few segments does not move them.
    let mut seg_p50 = Vec::new();
    let mut seg_p90 = Vec::new();
    let mut at = 0;
    for &len in &first.segments {
        let l: Vec<f64> = first.run.samples[at..at + len]
            .iter()
            .map(Sample::latency_ms)
            .collect();
        at += len;
        seg_p50.push(median(&l));
        seg_p90.push(pct(&l, 900).map_or(f64::NAN, |p| p.value));
    }
    rep.line(format!(
        "{FIRST_RATE} rps segments p50/p90: {}; pooled p50 {:.2} ms, p90 {:.2} ms ({} beyond)",
        seg_p50
            .iter()
            .zip(&seg_p90)
            .map(|(a, b)| format!("{a:.1}/{b:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        p50.value,
        p90.value,
        p90.beyond,
    ));
    let slo = slo_rate(&verdicts);
    let sustained = sustained_rate(&verdicts);
    rep.line(format!(
        "slo_rps {slo} (tail <= {SLO_MS} ms: p99 where 10 samples lie beyond it, else the highest \
         percentile that has 10; no failures; lateness steady)"
    ));
    rep.line(format!(
        "sustained_rps {sustained} (no failures, lateness steady)"
    ));
    rep.line(format!("error_ratio {} of {}", rep.failed, rep.attempted));
    if trace.enabled() {
        rep.set(
            "trace.p50_ms",
            median(&seg_p50),
            format!(
                "{FIRST_RATE} rps step: median of {} segment p50s",
                seg_p50.len()
            ),
        );
        rep.set(
            "trace.overhead",
            first.spans as f64 * Trace::span_cost_s() / first.run.wall.as_secs_f64(),
            format!("{} spans x measured span cost / step wall", first.spans),
        );
        set_routed_layers(first, rep, "40 rps step");
        set_light_server_layers(first, &checked[0], rep, "40 rps step");
        let frames: Vec<WireRequest> = first.plan.iter().map(|p| p.req.clone()).collect();
        wire_probes(&frames, &ok_responses(&first.responses), rep)?;
        probe_clusters(args, trace, rep, Probe::Transport, &frames)?;
        let connect = rep.metrics.get("serve.connect.ms").map_or(0.0, |v| v.value);
        let hop = rep.metrics.get("router.hop.ms").map_or(0.0, |v| v.value);
        rep.line(format!(
            "p50_ms {:.3} (traced): serve.connect.ms {connect:.3} ({:.0}% of it), router.hop.ms {hop:.3} ({:.0}%)",
            median(&seg_p50),
            100.0 * connect / median(&seg_p50),
            100.0 * hop / median(&seg_p50),
        ));
        compile::probe_layers(trace, rep)?;
    } else {
        let per = first.segments.iter().min().copied().unwrap_or(0);
        rep.set(
            "p50_ms",
            median(&seg_p50),
            format!(
                "{FIRST_RATE} rps step from due time: median of {} segment p50s, n>={per} each",
                seg_p50.len()
            ),
        );
        rep.set(
            "p90_ms",
            median(&seg_p90),
            format!(
                "median of {} segment p90s, each with >={} beyond",
                seg_p90.len(),
                per / 10
            ),
        );
        rep.set(
            "throughput_per_s",
            f64::from(sustained),
            "sustained_rps: highest ladder rate without failures or growing lateness",
        );
        rep.set(
            "energy_gain",
            checked[0].energy_gain(),
            format!(
                "geomean over {} (design, strategy) cells of power_reduction",
                checked[0].power_reductions.len()
            ),
        );
    }
    Ok(())
}

/// Starts a stateless server (`jobs = nproc`) and warms it: first
/// `ping` answered, then one asic and one egraph request.
fn heavy_server() -> Result<ServerHandle, String> {
    let s = start(ServerConfig {
        jobs: Some(nproc()),
        ..ServerConfig::default()
    })
    .map_err(e)?;
    let addr = s.addr().to_string();
    let warm = (|| {
        wait_until("a ping", || ping_ok(&addr))?;
        for (k, tuple) in [("ellip", "asic"), ("ellip", "egraph")]
            .into_iter()
            .enumerate()
        {
            let resp = client(&addr).request(&heavy_request(k, tuple)).map_err(e)?;
            if let Err(f) = resp.outcome {
                return Err(format!("warm-up failed: {} {}", f.code, f.message));
            }
        }
        Ok(())
    })();
    match warm {
        Ok(()) => Ok(s),
        Err(err) => {
            s.shutdown();
            Err(err)
        }
    }
}

/// serve-heavy: a closed loop of `nproc` clients sending asic and egraph
/// requests straight to one stateless server.
pub fn heavy(args: &Args, trace: &Trace, rep: &mut Report) -> Result<(), String> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let t = Instant::now();
        server = Some(heavy_server()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("SETUPS is positive");
    rep.set(
        "setup_s",
        median(&times),
        format!("median of {SETUPS} set-ups: stateless server up, ping answered, one asic and one egraph warm-up"),
    );
    let res = heavy_measured(args, &server, trace, rep);
    server.shutdown();
    res?;
    if trace.enabled() {
        probe_clusters(args, trace, rep, Probe::Routed, &[])?;
        compile::probe_layers(trace, rep)?;
    }
    Ok(())
}

fn heavy_measured(
    args: &Args,
    server: &ServerHandle,
    trace: &Trace,
    rep: &mut Report,
) -> Result<(), String> {
    let addr = server.addr().to_string();
    let cl = client(&addr);
    let tuples = heavy_tuples();
    let plan = Mutex::new(HeavyPlan::new(args.seed));
    // (request index, tuple index, answer)
    let answers: Mutex<Vec<(usize, usize, Answer)>> = Mutex::new(Vec::new());
    let before = (server.stats(), server.cache_stats());
    let spans_before = trace.len();
    let root = trace.open("closed-loop", None, 0);
    let run = closed_loop(nproc(), Duration::from_secs(args.seconds), |k| {
        let tuple = plan.lock().expect("plan lock").tuple(k);
        let req = heavy_request(k, tuples[tuple]);
        let id = trace.open(tuples[tuple].1, root, k as u64);
        let resp = cl.request(&req).map_err(e);
        trace.close(id);
        let ok = resp.as_ref().is_ok_and(|r| r.outcome.is_ok());
        answers.lock().expect("answers lock").push((k, tuple, resp));
        ok
    });
    trace.close(root);
    let spans = trace.len() - spans_before;
    let after = (server.stats(), server.cache_stats());
    let mut answers = answers.into_inner().expect("answers lock");
    answers.sort_by_key(|a| a.0);

    // Reference: every tuple once, in process.
    let mut reference = Reference::default();
    let mut want = Vec::new();
    let mut exec_ms = Vec::new();
    let mut gains = Vec::new();
    for &tuple in &tuples {
        let (json, took) = reference
            .answer(&heavy_request(0, tuple))?
            .ok_or("no reference for a heavy tuple")?;
        gains.push(
            json.get("improvement")
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN),
        );
        want.push(json.render_compact());
        exec_ms.push(took.as_secs_f64() * 1e3);
    }
    let mut first_bytes: HashMap<usize, String> = HashMap::new();
    for (k, tuple, resp) in &answers {
        let Ok(r) = resp else { continue };
        let Ok(result) = &r.outcome else { continue };
        let got = result.render_compact();
        rep.check(
            got == want[*tuple],
            format!(
                "request h{k} answered {got} but the library gives {}",
                want[*tuple]
            ),
        );
        let first = first_bytes.entry(*tuple).or_insert_with(|| got.clone());
        rep.check(
            *first == got,
            format!("repeated tuple {tuple} (request h{k}) changed its answer"),
        );
    }
    rep.attempted = run.samples.len() as u64;
    rep.failed = run.samples.iter().filter(|s| !s.ok).count() as u64;
    rep.check(
        run.workers <= nproc() && run.peak_in_flight <= nproc(),
        "load generator exceeded nproc threads or connections",
    );
    let lat: Vec<f64> = run.samples.iter().map(Sample::latency_ms).collect();
    let p50 = pct(&lat, 500).expect("samples");
    let p90 = pct(&lat, 900).expect("samples");
    let p99 = pct(&lat, 990).expect("samples");
    let ok = run.samples.iter().filter(|s| s.ok).count();
    let throughput = ok as f64 / run.wall.as_secs_f64();
    rep.line(format!(
        "throughput_rps {throughput:.4} ({ok} answers in {:.2} s, {} clients)",
        run.wall.as_secs_f64(),
        run.workers
    ));
    rep.line(format!(
        "p99_ms {}",
        if p99.reportable() {
            format!("{:.4} ms (n={}, {} beyond)", p99.value, p99.n, p99.beyond)
        } else {
            format!("not reported: n={}, only {} beyond", p99.n, p99.beyond)
        }
    ));
    rep.line(format!("error_ratio {} of {}", rep.failed, rep.attempted));
    if trace.enabled() {
        rep.set("trace.p50_ms", p50.value, format!("n={}", p50.n));
        rep.set(
            "trace.overhead",
            spans as f64 * Trace::span_cost_s() / run.wall.as_secs_f64(),
            format!("{spans} spans x measured span cost / window"),
        );
        let source = "closed loop";
        let answered = (after.0.requests_ok + after.0.requests_failed)
            - (before.0.requests_ok + before.0.requests_failed);
        rep.set(
            "serve.connections_per_request",
            ratio(after.0.connections - before.0.connections, answered),
            source,
        );
        rep.set(
            "serve.shed_ratio",
            ratio(after.0.shed - before.0.shed, rep.attempted),
            source,
        );
        rep.set(
            "serve.dedup_hit_ratio",
            0.0,
            "no keyed requests on a stateless server",
        );
        let cache = after.1.since(before.1);
        rep.set(
            "engine.cache.hit_rate",
            ratio(cache.hits, cache.hits + cache.misses),
            format!("{} lookups", cache.hits + cache.misses),
        );
        let reqs: Vec<WireRequest> = answers
            .iter()
            .map(|(k, t, _)| heavy_request(*k, tuples[*t]))
            .collect();
        rep.set(
            "serve.repeat_share",
            repeat_share(&reqs),
            "tuples already answered earlier in the run",
        );
        let late: Vec<f64> = run.samples.iter().map(Sample::late_ms).collect();
        let lp = pct(&late, 990).expect("samples");
        rep.set(
            "loadgen.late_ms.p99",
            lp.value,
            format!("client free to send; n={}, {} beyond", lp.n, lp.beyond),
        );
        let seq_exec: Vec<f64> = answers.iter().map(|(_, t, _)| exec_ms[*t]).collect();
        let exec = median(&seq_exec);
        rep.set(
            "exec.ms",
            exec,
            "median over the request sequence of in-process time per tuple",
        );
        let paired: Vec<f64> = answers
            .iter()
            .zip(&run.samples)
            .map(|((_, t, _), smp)| smp.latency_ms() - exec_ms[*t])
            .collect();
        rep.set(
            "serve.overhead.ms",
            median(&paired),
            "median over requests of served latency - in-process time of its tuple",
        );
        let resps: Vec<WireResponse> = answers
            .iter()
            .filter_map(|(_, _, r)| r.as_ref().ok().cloned())
            .collect();
        wire_probes(&reqs, &resps, rep)?;
    } else {
        rep.set("p50_ms", p50.value, format!("n={}", p50.n));
        rep.set(
            "p90_ms",
            p90.value,
            format!("n={}, {} beyond", p90.n, p90.beyond),
        );
        rep.set(
            "throughput_per_s",
            throughput,
            "throughput_rps: successful answers per second",
        );
        rep.set(
            "energy_gain",
            geomean(&gains),
            "geomean improvement over the 16 tuples",
        );
    }
    Ok(())
}

/// Per-run scratch directory inside the checkout, removed on drop.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
