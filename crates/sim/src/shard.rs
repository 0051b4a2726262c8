//! Sharded-cluster simulation: a deterministic, single-threaded model
//! of the `lintra route` front end over M replicated shard groups.
//!
//! The router model is *not* a reimplementation of the routing math —
//! it runs the real [`ShardRing`], the real [`RetryBudget`] arithmetic,
//! and the real [`routing_key`] precedence, while every shard replica
//! runs the shipped replication core through the same node shell the
//! cluster simulation drives. What this harness adds is the failure surface the threaded
//! router cannot schedule deterministically: a shard blackout racing a
//! hedge, a retry landing during a failover, the budget draining while
//! a breaker is half-open.
//!
//! Machine-checked invariants, audited after **every** event:
//!
//! - **R1 (partial degradation)**: while one shard is blacked out,
//!   every request whose key routes to a *healthy* shard still settles
//!   before the heal barrier — an outage never spreads across the ring.
//! - **R2 (retry budget)**: total retry + hedge volume never exceeds
//!   the budget bound `cap + requests × ratio`, even during a blackout
//!   when every attempt is failing. [`RouterSimBug::UnboundedRetries`]
//!   re-introduces the retry-storm bug this invariant exists to catch.
//! - **R3 (no double execution)**: a journaled `request_id` is never
//!   executed twice — not by a hedge, not by a duplicate — on any node
//!   of its group, except across an explicit failover replay (the
//!   documented at-least-once caveat the real cluster shares).
//! - **R4 (re-convergence)**: once faults stop, every shard group ends
//!   with exactly one unfenced primary, every key — including the
//!   blacked-out shard's and the post-heal probes — settles, and
//!   settled keys answer byte-identically across retries.
//!
//! A run is a pure function of `(seed, ShardSimConfig)`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::replicate::{ReplMsg, Role};
use lintra_serve::router::{routing_key, RetryBudget, ShardRing};

use crate::cluster::{failure, Node, NodeTimer, Out, Timing};
use crate::harness::{Audit, Scheduled, CLIENT_INC, MAX_EVENTS, MAX_VIOLATIONS};
use crate::SimBug;

/// Consecutive attempt failures before a shard's breaker opens.
const BREAKER_THRESHOLD: u64 = 3;

/// Deliberately re-introducible router bugs; each must be caught by an
/// invariant under a checked-in regression seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterSimBug {
    /// The faithful router model.
    #[default]
    None,
    /// A router with no backpressure: retries and hedges never consult
    /// the retry budget and the breaker never opens, so a dead shard
    /// turns every timeout into a retry storm — the amplification
    /// failure invariant R2 exists to catch.
    UnboundedRetries,
}

/// The scripted outage for one run. Faults land at 1/8 of the run and
/// heal at the 3/5 barrier, after which full convergence is demanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardScenario {
    /// No faults: a smoke run over the happy path.
    #[default]
    None,
    /// Kill one shard group's primary. The follower must promote, the
    /// router must converge onto it, and *every* key — this group's
    /// included — must settle before the heal barrier (R1 with an
    /// empty affected set).
    PrimaryCrash {
        /// Group index, wrapped modulo the group count.
        group: usize,
    },
    /// Kill every replica of one shard group. Its keys degrade to
    /// `RES-SHARD-DOWN` while other shards keep serving (R1), and they
    /// settle after the heal (R4).
    Blackout {
        /// Group index, wrapped modulo the group count.
        group: usize,
    },
}

/// Everything that parameterizes a sharded run. All times are virtual
/// milliseconds.
#[derive(Debug, Clone)]
pub struct ShardSimConfig {
    /// Shard groups on the ring.
    pub groups: usize,
    /// Replicas per group; node 0 starts as the group's primary.
    pub nodes_per_group: usize,
    /// Concurrent clients, all talking to the router.
    pub clients: usize,
    /// Keyed requests each client works through.
    pub requests_per_client: usize,
    /// Total virtual run length.
    pub sim_ms: u64,
    /// Node housekeeping cadence.
    pub tick_ms: u64,
    /// Follower silence tolerance before arbitration.
    pub grace_ms: u64,
    /// Virtual cost of executing one request.
    pub exec_ms: u64,
    /// Base one-way message latency.
    pub net_ms: u64,
    /// Additional random per-message latency (uniform, exclusive).
    pub jitter_ms: u64,
    /// Message loss rate, per mille, until the heal barrier.
    pub drop_permille: u64,
    /// Client patience before re-sending the current key.
    pub client_timeout_ms: u64,
    /// Router patience per forwarded attempt.
    pub router_timeout_ms: u64,
    /// Hedge delay (the real router derives this from its P99 tracker;
    /// the sim pins it so runs are comparable across seeds).
    pub hedge_ms: u64,
    /// Router health-probe cadence (`ReplMsg::Status` per endpoint; a
    /// `primary` reply re-aims the shard cursor, like the real prober).
    pub probe_ms: u64,
    /// How long an open shard breaker blocks before admitting a probe.
    pub breaker_cooldown_ms: u64,
    /// Retry budget deposit per request, in milli-tokens (100 = 10%).
    pub retry_ratio_milli: u64,
    /// Retry budget bank cap, in whole retries.
    pub retry_cap: u64,
    /// Per-request retry ceiling (budget permitting).
    pub max_retries: u64,
    /// Virtual vnodes per shard on the ring.
    pub vnodes: usize,
    /// The scripted outage.
    pub scenario: ShardScenario,
    /// The injected router bug, if any.
    pub bug: RouterSimBug,
}

impl Default for ShardSimConfig {
    fn default() -> ShardSimConfig {
        ShardSimConfig {
            groups: 3,
            nodes_per_group: 2,
            clients: 3,
            requests_per_client: 4,
            sim_ms: 8000,
            tick_ms: 50,
            grace_ms: 300,
            exec_ms: 40,
            net_ms: 5,
            jitter_ms: 10,
            drop_permille: 10,
            client_timeout_ms: 400,
            router_timeout_ms: 250,
            hedge_ms: 120,
            probe_ms: 250,
            breaker_cooldown_ms: 500,
            retry_ratio_milli: 100,
            retry_cap: 8,
            max_retries: 2,
            vnodes: 16,
            scenario: ShardScenario::None,
            bug: RouterSimBug::None,
        }
    }
}

/// What one sharded run produced. Bit-reproducible from
/// `(seed, config)`, trace lines included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// Terminal responses clients received.
    pub answered: u64,
    /// Distinct `request_id`s settled.
    pub settled: u64,
    /// Requests the router admitted (deposits into the budget).
    pub requests: u64,
    /// Requests forwarded to a terminal backend answer.
    pub forwarded: u64,
    /// Retries the router issued (withdrawals from the budget).
    pub retries: u64,
    /// Hedged duplicates the router issued (also budget withdrawals).
    pub hedges: u64,
    /// Requests shed with `RES-RETRY-BUDGET`.
    pub shed: u64,
    /// Requests answered `RES-SHARD-DOWN` (breaker or exhausted walk).
    pub shard_down: u64,
    /// Follower promotions across all groups.
    pub promotions: u64,
    /// Fencing transitions across all groups.
    pub fences: u64,
    /// Invariant violations, in detection order. Empty means PASS.
    pub violations: Vec<String>,
    /// Compact fault/role/violation schedule with virtual timestamps.
    pub trace: Vec<String>,
}

impl ShardSimReport {
    /// True when every invariant held for the whole run.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The failure artifact: seed plus the compact schedule trace.
    pub fn repro(&self) -> String {
        let mut out = format!(
            "shard sim seed {} ({} events, {} retries, {} hedges, {} shed, {} shard-down)\n",
            self.seed, self.events, self.retries, self.hedges, self.shed, self.shard_down
        );
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str("VIOLATION ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

/// Runs one sharded simulation to completion under virtual time.
pub fn run_shard_sim(seed: u64, config: &ShardSimConfig) -> ShardSimReport {
    let mut h = ShardHarness::new(seed, config);
    h.setup();
    h.run_loop();
    h.report()
}

#[derive(Debug)]
enum Ev {
    NodeTick {
        node: usize,
        inc: u64,
    },
    NodeTimer {
        node: usize,
        inc: u64,
        timer: NodeTimer,
    },
    Deliver {
        from: String,
        to: String,
        to_inc: u64,
        line: String,
    },
    /// Client resend of its current key (timeout or shed backoff).
    ClientRetry {
        client: usize,
        token: u64,
    },
    /// A forwarded attempt went unanswered.
    RouterTimeout {
        id: u64,
        token: u64,
    },
    /// The hedge delay elapsed with no answer yet.
    RouterHedge {
        id: u64,
    },
    /// Backoff after `RES-DUPLICATE-REQUEST`: re-ask; the journal will
    /// serve the settled answer byte-identically.
    RouterAskAgain {
        id: u64,
        token: u64,
    },
    /// The router's periodic health probe of every shard endpoint.
    RouterProbe,
    Fault(FaultEv),
    End,
}

#[derive(Debug, Clone)]
enum FaultEv {
    Crash(usize),
    HealAll,
}

/// One simulated client: works through its keys in order, but rotates
/// a key to the back of the queue when the router reports its shard
/// degraded — other work continues while one shard is down.
struct ShardClient {
    name: String,
    queue: Vec<String>,
    token: u64,
    waiting: bool,
}

/// One in-flight request inside the router model.
struct Pending {
    id: u64,
    /// The wire envelope id responses correlate on (clients set it to
    /// their idempotency key, like the real client does).
    rid: String,
    line: String,
    client: String,
    group: usize,
    /// Endpoint offset past the group cursor for the current copy.
    walk: usize,
    /// Redirect hops within the current attempt (capped at group size).
    redirects: usize,
    retries: u64,
    hedged: bool,
    /// Attempt guard: stale timeouts carry an older token.
    token: u64,
}

/// Per-group breaker state, the sim's equivalent of the real router's
/// per-shard [`CircuitBreaker`](lintra_serve::CircuitBreaker).
#[derive(Clone, Copy, Default)]
struct GroupHealth {
    consec_fail: u64,
    open_until: u64,
}

struct Stats {
    requests: u64,
    forwarded: u64,
    retries: u64,
    hedges: u64,
    shed: u64,
    shard_down: u64,
}

struct ShardHarness<'a> {
    cfg: &'a ShardSimConfig,
    seed: u64,
    groups: usize,
    npg: usize,
    nodes: Vec<Node>,
    audits: Vec<Audit>,
    node_addrs: Vec<String>,
    clients: Vec<ShardClient>,
    queue: BinaryHeap<Reverse<Scheduled<Ev>>>,
    seq: u64,
    now: u64,
    rng: SplitMix64,
    drop_permille: u64,
    ring: ShardRing,
    budget: RetryBudget,
    budget_cap_milli: u64,
    cursors: Vec<usize>,
    health: Vec<GroupHealth>,
    pending: Vec<Pending>,
    next_id: u64,
    next_token: u64,
    stats: Stats,
    /// First terminal response line per rid: the byte-identity oracle.
    settled: HashMap<String, String>,
    answered: u64,
    /// Every key any client will ever work through (probes included).
    all_work: Vec<String>,
    /// Groups the scenario takes down wholesale (R1 exempts their keys
    /// from the settle-by-heal demand).
    affected: HashSet<usize>,
    violations: Vec<String>,
    seen_violations: HashSet<String>,
    trace: Vec<String>,
    events: u64,
}

impl<'a> ShardHarness<'a> {
    fn new(seed: u64, cfg: &'a ShardSimConfig) -> ShardHarness<'a> {
        let groups = cfg.groups.max(1);
        let npg = cfg.nodes_per_group.max(1);
        let timing = Timing {
            tick_ms: cfg.tick_ms,
            grace_ms: cfg.grace_ms,
            exec_ms: cfg.exec_ms,
        };
        let mut nodes = Vec::with_capacity(groups * npg);
        let mut node_addrs = Vec::with_capacity(groups * npg);
        for g in 0..groups {
            let cluster: Vec<String> = (0..npg).map(|i| format!("s{g}n{i}")).collect();
            for i in 0..npg {
                let replica_of = (i != 0).then(|| cluster[0].clone());
                nodes.push(Node::new(i, &cluster, replica_of, timing, SimBug::None));
            }
            node_addrs.extend(cluster);
        }
        let clients: Vec<ShardClient> = (0..cfg.clients)
            .map(|i| ShardClient {
                name: format!("c{i}"),
                queue: (0..cfg.requests_per_client)
                    .map(|j| format!("c{i}-r{j}"))
                    .collect(),
                token: 0,
                waiting: false,
            })
            .collect();
        let all_work = clients.iter().flat_map(|c| c.queue.clone()).collect();
        let affected = match cfg.scenario {
            ShardScenario::Blackout { group } => HashSet::from([group % groups]),
            _ => HashSet::new(),
        };
        ShardHarness {
            cfg,
            seed,
            groups,
            npg,
            audits: nodes.iter().map(Audit::new).collect(),
            nodes,
            node_addrs,
            clients,
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng: SplitMix64::new(seed ^ 0x5AA2_D0E5_EED1),
            drop_permille: cfg.drop_permille,
            ring: ShardRing::new(groups, cfg.vnodes),
            budget: RetryBudget::new(cfg.retry_ratio_milli, cfg.retry_cap),
            budget_cap_milli: (cfg.retry_cap.saturating_mul(1000)).max(1000),
            cursors: vec![0; groups],
            health: vec![GroupHealth::default(); groups],
            pending: Vec::new(),
            next_id: 0,
            next_token: 0,
            stats: Stats {
                requests: 0,
                forwarded: 0,
                retries: 0,
                hedges: 0,
                shed: 0,
                shard_down: 0,
            },
            settled: HashMap::new(),
            answered: 0,
            all_work,
            affected,
            violations: Vec::new(),
            seen_violations: HashSet::new(),
            trace: Vec::new(),
            events: 0,
        }
    }

    fn setup(&mut self) {
        for i in 0..self.nodes.len() {
            let inc = self.nodes[i].incarnation;
            self.schedule(self.cfg.tick_ms + i as u64, Ev::NodeTick { node: i, inc });
        }
        for ci in 0..self.clients.len() {
            self.client_send(ci);
        }
        self.schedule(self.cfg.probe_ms / 2, Ev::RouterProbe);
        let start = self.cfg.sim_ms / 8;
        let heal = self.cfg.sim_ms * 3 / 5;
        match self.cfg.scenario {
            ShardScenario::None => {}
            ShardScenario::PrimaryCrash { group } => {
                let g = group % self.groups;
                self.schedule(start, Ev::Fault(FaultEv::Crash(g * self.npg)));
            }
            ShardScenario::Blackout { group } => {
                let g = group % self.groups;
                for i in 0..self.npg {
                    self.schedule(start, Ev::Fault(FaultEv::Crash(g * self.npg + i)));
                }
            }
        }
        self.schedule(heal, Ev::Fault(FaultEv::HealAll));
        self.schedule(self.cfg.sim_ms, Ev::End);
    }

    fn run_loop(&mut self) {
        while let Some(Reverse(s)) = self.queue.pop() {
            self.now = s.at;
            self.events += 1;
            let is_end = matches!(s.ev, Ev::End);
            self.handle(s.ev);
            self.check_invariants();
            if is_end || self.violations.len() >= MAX_VIOLATIONS {
                break;
            }
            if self.events >= MAX_EVENTS {
                self.violate("harness: event budget exhausted (runaway schedule)".to_string());
                break;
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::NodeTick { node, inc } => {
                if self.nodes[node].up && self.nodes[node].incarnation == inc {
                    let mut outs = Vec::new();
                    self.nodes[node].on_tick(self.now, &mut outs);
                    self.process_outs(node, outs);
                    self.schedule(self.now + self.cfg.tick_ms, Ev::NodeTick { node, inc });
                }
            }
            Ev::NodeTimer { node, inc, timer } => {
                if self.nodes[node].up && self.nodes[node].incarnation == inc {
                    let mut outs = Vec::new();
                    self.nodes[node].on_timer(timer, self.now, &mut outs);
                    self.process_outs(node, outs);
                }
            }
            Ev::Deliver {
                from,
                to,
                to_inc,
                line,
            } => {
                if to == "router" {
                    if self.node_index(&from).is_some() {
                        if let Some(ReplMsg::StatusReply { role, .. }) = ReplMsg::parse(&line) {
                            self.router_on_probe_reply(&from, &role);
                        } else {
                            self.router_on_response(&line);
                        }
                    } else if let Some(ci) = self.client_index(&from) {
                        self.router_on_request(ci, &line);
                    }
                } else if let Some(ni) = self.node_index(&to) {
                    if !self.nodes[ni].up || self.nodes[ni].incarnation != to_inc {
                        return; // the connection died with the process
                    }
                    let mut outs = Vec::new();
                    self.nodes[ni].on_line(&from, &line, self.now, &mut outs);
                    self.process_outs(ni, outs);
                } else if let Some(ci) = self.client_index(&to) {
                    self.client_on_line(ci, &line);
                }
            }
            Ev::ClientRetry { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    self.client_send(client);
                }
            }
            Ev::RouterTimeout { id, token } => {
                if let Some(idx) = self
                    .pending
                    .iter()
                    .position(|p| p.id == id && p.token == token)
                {
                    self.attempt_failed(idx);
                }
            }
            Ev::RouterHedge { id } => self.maybe_hedge(id),
            Ev::RouterAskAgain { id, token } => {
                if let Some(idx) = self
                    .pending
                    .iter()
                    .position(|p| p.id == id && p.token == token)
                {
                    self.forward(idx);
                }
            }
            Ev::RouterProbe => {
                let probe = ReplMsg::Status.render_line().trim_end().to_string();
                for addr in self.node_addrs.clone() {
                    self.route("router", &addr, &probe);
                }
                self.schedule(self.now + self.cfg.probe_ms, Ev::RouterProbe);
            }
            Ev::Fault(f) => self.handle_fault(f),
            Ev::End => self.check_end(),
        }
    }

    // ---- the router model -------------------------------------------

    /// A probe answered: a serving primary re-aims the shard cursor and
    /// counts as a breaker success, exactly like the real prober — so a
    /// failover converges without sacrificing a live request.
    fn router_on_probe_reply(&mut self, from: &str, role: &str) {
        let Some(ni) = self.node_index(from) else {
            return;
        };
        if role == "primary" {
            let (g, i) = (ni / self.npg, ni % self.npg);
            self.cursors[g] = i;
            self.health[g].consec_fail = 0;
        }
    }

    fn router_on_request(&mut self, ci: usize, line: &str) {
        let client = self.clients[ci].name.clone();
        let req = match WireRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let resp = WireResponse::err(
                    "",
                    failure(ErrorClass::Validation, "VAL-MALFORMED-REQUEST", e),
                );
                self.reply_to_client(&client, &resp.render_line());
                return;
            }
        };
        self.stats.requests += 1;
        self.budget.on_request();
        let key = routing_key(&req);
        let Some(group) = self.ring.shard_of(&key) else {
            let resp = WireResponse::err(
                req.id,
                failure(ErrorClass::Validation, "VAL-CONFIG", "empty shard ring"),
            );
            self.reply_to_client(&client, &resp.render_line());
            return;
        };
        // A resend of a key the router is already working on attaches
        // to the existing slot instead of double-forwarding (the real
        // router serves each connection independently; the journal
        // dedups — here one reply to the one client suffices).
        if let Some(p) = self.pending.iter_mut().find(|p| p.rid == req.id) {
            p.client = client;
            return;
        }
        // Breaker admit: an open shard fast-fails its keys while other
        // shards keep serving — the graceful-degradation contract.
        let h = self.health[group];
        if self.cfg.bug != RouterSimBug::UnboundedRetries
            && h.consec_fail >= BREAKER_THRESHOLD
            && self.now < h.open_until
        {
            self.stats.shard_down += 1;
            let retry_in = h.open_until - self.now;
            let resp = WireResponse::err(
                req.id,
                failure(
                    ErrorClass::Resource,
                    "RES-SHARD-DOWN",
                    format!(
                        "shard {group} is unreachable; next probe in {retry_in} ms — \
                         other shards keep serving"
                    ),
                ),
            );
            self.reply_to_client(&client, &resp.render_line());
            return;
        }
        self.next_id += 1;
        self.pending.push(Pending {
            id: self.next_id,
            rid: req.id.clone(),
            line: line.trim_end().to_string(),
            client,
            group,
            walk: 0,
            redirects: 0,
            retries: 0,
            hedged: false,
            token: 0,
        });
        let idx = self.pending.len() - 1;
        self.forward(idx);
        if self.npg > 1 && req.request_id.is_some() {
            // Hedging is keyed-requests-only, like the real router.
            let id = self.next_id;
            self.schedule(self.now + self.cfg.hedge_ms, Ev::RouterHedge { id });
        }
    }

    /// Sends the current copy of slot `idx` to its next endpoint and
    /// arms the attempt timeout.
    fn forward(&mut self, idx: usize) {
        self.next_token += 1;
        let p = &mut self.pending[idx];
        p.token = self.next_token;
        let endpoint = self.node_addrs
            [p.group * self.npg + (self.cursors[p.group] + p.walk) % self.npg]
            .clone();
        let (id, token, line) = (p.id, p.token, p.line.clone());
        self.route("router", &endpoint, &line);
        self.schedule(
            self.now + self.cfg.router_timeout_ms,
            Ev::RouterTimeout { id, token },
        );
    }

    fn router_on_response(&mut self, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let Some(idx) = self.pending.iter().position(|p| p.rid == resp.id) else {
            return; // a straggler for a settled slot (hedge loser)
        };
        let terminal = match &resp.outcome {
            Ok(_) => true,
            Err(f) => f.class == ErrorClass::Numerical,
        };
        if terminal {
            let p = self.pending.swap_remove(idx);
            self.health[p.group].consec_fail = 0;
            self.cursors[p.group] = (self.cursors[p.group] + p.walk) % self.npg;
            self.stats.forwarded += 1;
            self.reply_to_client(&p.client, line);
            return;
        }
        let code = match &resp.outcome {
            Err(f) => f.code.clone(),
            Ok(_) => String::new(),
        };
        match code.as_str() {
            // Redirects name the wrong server: walk the shard's
            // endpoint list without charging the budget, exactly like
            // the real `walk_shard`.
            "RES-NOT-PRIMARY" | "RES-STALE-EPOCH" => {
                let p = &mut self.pending[idx];
                p.walk += 1;
                p.redirects += 1;
                if p.redirects >= self.npg {
                    p.redirects = 0;
                    self.attempt_failed(idx);
                } else {
                    self.forward(idx);
                }
            }
            // Our other copy (or an earlier attempt) is executing
            // there: wait out the execution, then re-ask — the journal
            // serves the settled answer byte-identically.
            "RES-DUPLICATE-REQUEST" => {
                let (id, token) = (self.pending[idx].id, self.pending[idx].token);
                self.schedule(
                    self.now + self.cfg.exec_ms * 2,
                    Ev::RouterAskAgain { id, token },
                );
            }
            _ => self.attempt_failed(idx),
        }
    }

    /// One forwarded attempt failed (timeout, exhausted redirect walk,
    /// or a non-terminal error): feed the breaker, then retry under the
    /// budget, shed, or give up on the shard.
    fn attempt_failed(&mut self, idx: usize) {
        let group = self.pending[idx].group;
        self.health[group].consec_fail += 1;
        if self.health[group].consec_fail >= BREAKER_THRESHOLD {
            self.health[group].open_until = self.now + self.cfg.breaker_cooldown_ms;
        }
        let can_retry = self.pending[idx].retries < self.cfg.max_retries;
        let budget_ok = self.cfg.bug == RouterSimBug::UnboundedRetries
            || (can_retry && self.budget.try_retry());
        if can_retry && budget_ok {
            self.stats.retries += 1;
            let p = &mut self.pending[idx];
            p.retries += 1;
            p.walk += 1;
            p.redirects = 0;
            self.forward(idx);
            return;
        }
        let p = self.pending.swap_remove(idx);
        let (code, message) = if can_retry {
            self.stats.shed += 1;
            (
                "RES-RETRY-BUDGET",
                format!("retry budget exhausted routing `{}`; backing off", p.rid),
            )
        } else {
            self.stats.shard_down += 1;
            (
                "RES-SHARD-DOWN",
                format!("no replica of shard {group} answered for `{}`", p.rid),
            )
        };
        let resp = WireResponse::err(p.rid, failure(ErrorClass::Resource, code, message));
        self.reply_to_client(&p.client, &resp.render_line());
    }

    /// The hedge delay elapsed: if the slot is still unanswered and the
    /// budget allows, race a duplicate copy against the first.
    fn maybe_hedge(&mut self, id: u64) {
        let Some(idx) = self.pending.iter().position(|p| p.id == id) else {
            return;
        };
        if self.pending[idx].hedged {
            return;
        }
        let budget_ok = self.cfg.bug == RouterSimBug::UnboundedRetries || self.budget.try_retry();
        if !budget_ok {
            return; // an empty budget skips the hedge, never the original
        }
        self.stats.hedges += 1;
        let p = &mut self.pending[idx];
        p.hedged = true;
        let offset = p.walk + 1;
        let endpoint = self.node_addrs
            [p.group * self.npg + (self.cursors[p.group] + offset) % self.npg]
            .clone();
        let line = p.line.clone();
        self.route("router", &endpoint, &line);
    }

    fn reply_to_client(&mut self, client: &str, line: &str) {
        let line = line.trim_end().to_string();
        self.route("router", client, &line);
    }

    // ---- clients ----------------------------------------------------

    fn client_send(&mut self, ci: usize) {
        let c = &mut self.clients[ci];
        let Some(rid) = c.queue.first().cloned() else {
            c.waiting = false;
            return;
        };
        c.token += 1;
        c.waiting = true;
        let token = c.token;
        let from = c.name.clone();
        let line = WireRequest::new(rid.clone(), WireOp::Ping)
            .with_request_id(rid)
            .render_line()
            .trim_end()
            .to_string();
        self.route(&from, "router", &line);
        self.schedule(
            self.now + self.cfg.client_timeout_ms,
            Ev::ClientRetry { client: ci, token },
        );
    }

    fn client_on_line(&mut self, ci: usize, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let terminal = match &resp.outcome {
            Ok(_) => true,
            Err(f) => f.class == ErrorClass::Numerical,
        };
        if terminal {
            // The byte-identity oracle holds for every terminal answer,
            // current or straggler.
            let got = line.trim_end().to_string();
            match self.settled.get(&resp.id) {
                Some(prev) if *prev != got => {
                    let prev = prev.clone();
                    self.violate(format!(
                        "invariant R4: `{}` answered differently across retries \
                         (first `{prev}`, then `{got}`)",
                        resp.id
                    ));
                }
                Some(_) => {}
                None => {
                    self.settled.insert(resp.id.clone(), got);
                }
            }
            self.answered += 1;
        }
        let c = &self.clients[ci];
        if !c.waiting || c.queue.first() != Some(&resp.id) {
            return; // a straggler for an earlier key
        }
        if terminal {
            self.clients[ci].queue.remove(0);
            self.client_send(ci);
            return;
        }
        let code = match &resp.outcome {
            Err(f) => f.code.clone(),
            Ok(_) => String::new(),
        };
        match code.as_str() {
            // The router says this key's shard is degraded: rotate the
            // key to the back and keep working the rest of the queue —
            // one dead shard must not stall the client's other work.
            "RES-SHARD-DOWN" | "RES-RETRY-BUDGET" => {
                let c = &mut self.clients[ci];
                if c.queue.len() > 1 {
                    let rid = c.queue.remove(0);
                    c.queue.push(rid);
                }
                c.token += 1;
                let token = c.token;
                self.schedule(
                    self.now + self.cfg.client_timeout_ms / 2,
                    Ev::ClientRetry { client: ci, token },
                );
            }
            _ => {
                let c = &mut self.clients[ci];
                c.token += 1;
                let token = c.token;
                self.schedule(
                    self.now + self.cfg.client_timeout_ms / 2,
                    Ev::ClientRetry { client: ci, token },
                );
            }
        }
    }

    // ---- faults and invariants --------------------------------------

    fn handle_fault(&mut self, f: FaultEv) {
        match f {
            FaultEv::Crash(i) => {
                if self.nodes[i].up {
                    self.nodes[i].crash();
                    self.trace.push(format!(
                        "t={}ms fault: crash {}",
                        self.now, self.nodes[i].addr
                    ));
                }
            }
            FaultEv::HealAll => {
                self.drop_permille = 0;
                self.trace.push(format!(
                    "t={}ms fault: heal-all (crashed replicas restart, loss off)",
                    self.now
                ));
                // R1, checked at the barrier: every key owned by a
                // healthy shard settled while the outage was live.
                let work = self.all_work.clone();
                for rid in work {
                    let owner = self.ring.shard_of(&rid);
                    let exempt = owner.is_some_and(|g| self.affected.contains(&g));
                    if !exempt && !self.settled.contains_key(&rid) {
                        self.violate(format!(
                            "invariant R1: healthy-shard request `{rid}` (shard {owner:?}) \
                             did not settle during the outage window"
                        ));
                    }
                }
                for i in 0..self.nodes.len() {
                    if !self.nodes[i].up {
                        let mut outs = Vec::new();
                        self.nodes[i].restart(self.now, &mut outs);
                        self.audits[i].restarted(&self.nodes[i]);
                        self.process_outs(i, outs);
                        let inc = self.nodes[i].incarnation;
                        self.schedule(self.now + self.cfg.tick_ms, Ev::NodeTick { node: i, inc });
                    }
                }
                // Convergence probes: every client completes one more
                // keyed request before the run ends (R4).
                for ci in 0..self.clients.len() {
                    let probe = format!("probe-{}", self.clients[ci].name);
                    self.all_work.push(probe.clone());
                    self.clients[ci].queue.push(probe);
                    if !self.clients[ci].waiting {
                        self.client_send(ci);
                    }
                }
            }
        }
    }

    fn check_end(&mut self) {
        for g in 0..self.groups {
            let primaries = self
                .nodes
                .iter()
                .skip(g * self.npg)
                .take(self.npg)
                .filter(|n| n.up && n.core.role() == Role::Primary)
                .count();
            if primaries != 1 {
                self.violate(format!(
                    "invariant R4: shard {g} ended with {primaries} unfenced primaries \
                     (want exactly 1)"
                ));
            }
            // R3: a rid executes at most once inside its group unless
            // an explicit failover replayed it.
            let group = &self.audits[g * self.npg..(g + 1) * self.npg];
            let promotions: u64 = group.iter().map(|a| a.promotions).sum();
            let mut execs: HashMap<String, u64> = HashMap::new();
            for audit in group {
                for (rid, count) in &audit.exec_count {
                    *execs.entry(rid.clone()).or_insert(0) += count;
                }
            }
            let mut over: Vec<(String, u64)> = execs.into_iter().filter(|(_, c)| *c > 1).collect();
            over.sort_unstable();
            for (rid, count) in over {
                if promotions == 0 {
                    self.violate(format!(
                        "invariant R3: `{rid}` executed {count} times on shard {g} \
                         with no failover to explain the replay"
                    ));
                }
            }
        }
        let pending: Vec<String> = self
            .all_work
            .iter()
            .filter(|rid| !self.settled.contains_key(*rid))
            .cloned()
            .collect();
        for rid in pending {
            self.violate(format!(
                "invariant R4: request `{rid}` never settled within {} virtual ms",
                self.cfg.sim_ms
            ));
        }
    }

    /// R2 (checked after every event) plus the per-group split-brain
    /// and frozen-journal checks the cluster harness runs.
    fn check_invariants(&mut self) {
        let spent = (self.stats.retries + self.stats.hedges).saturating_mul(1000);
        let bound = self.budget_cap_milli.saturating_add(
            self.stats
                .requests
                .saturating_mul(self.cfg.retry_ratio_milli),
        );
        if spent > bound {
            self.violate(format!(
                "invariant R2: retry volume exceeded the budget bound \
                 ({} retries + {} hedges = {spent} milli-tokens > cap {} + {} requests × {})",
                self.stats.retries,
                self.stats.hedges,
                self.budget_cap_milli,
                self.stats.requests,
                self.cfg.retry_ratio_milli
            ));
        }
        for g in 0..self.groups {
            let mut epochs: Vec<u64> = Vec::new();
            for n in self.nodes.iter().skip(g * self.npg).take(self.npg) {
                let epoch = n.core.epoch();
                if n.up && n.core.role() == Role::Primary {
                    if epochs.contains(&epoch) {
                        self.violate(format!(
                            "invariant R4: two unfenced primaries on shard {g} share epoch {epoch}"
                        ));
                        break;
                    }
                    epochs.push(epoch);
                }
            }
        }
        let mut frozen_grew = Vec::new();
        for (n, audit) in self.nodes.iter().zip(&self.audits) {
            if let Some(frozen) = audit.frozen_len {
                if n.journal.len() != frozen {
                    frozen_grew.push(format!(
                        "invariant R4: fenced/diverged {} journal changed \
                         ({} records frozen, now {})",
                        n.addr,
                        frozen,
                        n.journal.len()
                    ));
                }
            }
        }
        for v in frozen_grew {
            self.violate(v);
        }
    }

    // ---- plumbing ---------------------------------------------------

    fn process_outs(&mut self, ni: usize, outs: Vec<Out>) {
        let from = self.nodes[ni].addr.clone();
        for out in outs {
            match out {
                Out::Send { to, line } => self.route(&from, &to, &line),
                Out::Timer { delay_ms, timer } => {
                    let inc = self.nodes[ni].incarnation;
                    self.schedule(
                        self.now + delay_ms.max(1),
                        Ev::NodeTimer {
                            node: ni,
                            inc,
                            timer,
                        },
                    );
                }
                Out::Trace(t) => self.trace.push(t),
                Out::Executed { rid, settled } => {
                    if let Some(v) = self.audits[ni].executed(&from, rid, settled) {
                        self.violate(format!("invariant R3: {v}"));
                    }
                }
            }
        }
        self.audits[ni].observe(&self.nodes[ni]);
    }

    /// Puts one line on the wire: loss and jitter apply to every link
    /// until the heal barrier.
    fn route(&mut self, from: &str, to: &str, line: &str) {
        if self.drop_permille > 0 && self.rng.next_u64() % 1000 < self.drop_permille {
            return;
        }
        let delay = self.cfg.net_ms + self.rng.next_u64() % self.cfg.jitter_ms.max(1);
        let to_inc = self
            .node_index(to)
            .map_or(CLIENT_INC, |i| self.nodes[i].incarnation);
        self.schedule(
            self.now + delay,
            Ev::Deliver {
                from: from.to_string(),
                to: to.to_string(),
                to_inc,
                line: line.to_string(),
            },
        );
    }

    fn violate(&mut self, v: String) {
        if self.seen_violations.insert(v.clone()) {
            self.trace.push(format!("t={}ms VIOLATION {v}", self.now));
            self.violations.push(v);
        }
    }

    fn schedule(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at: at.max(self.now),
            seq: self.seq,
            ev,
        }));
    }

    fn node_index(&self, addr: &str) -> Option<usize> {
        self.node_addrs.iter().position(|a| a == addr)
    }

    fn client_index(&self, name: &str) -> Option<usize> {
        self.clients.iter().position(|c| c.name == name)
    }

    fn report(self) -> ShardSimReport {
        ShardSimReport {
            seed: self.seed,
            events: self.events,
            answered: self.answered,
            settled: self.settled.len() as u64,
            requests: self.stats.requests,
            forwarded: self.stats.forwarded,
            retries: self.stats.retries,
            hedges: self.stats.hedges,
            shed: self.stats.shed,
            shard_down: self.stats.shard_down,
            promotions: self.audits.iter().map(|a| a.promotions).sum(),
            fences: self.audits.iter().map(|a| a.fences).sum(),
            violations: self.violations,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fault_free_run_settles_everything() {
        let report = run_shard_sim(3, &ShardSimConfig::default());
        assert!(report.passed(), "{}", report.repro());
        assert_eq!(report.settled, 3 * 4 + 3, "work + probes");
        assert!(report.forwarded > 0);
    }

    #[test]
    fn shard_reports_are_bit_reproducible() {
        let config = ShardSimConfig {
            scenario: ShardScenario::Blackout { group: 1 },
            ..ShardSimConfig::default()
        };
        let a = run_shard_sim(9, &config);
        let b = run_shard_sim(9, &config);
        assert_eq!(a, b);
    }
}
