//! The simulation harness: one binary heap of timestamped events drives
//! N simulated nodes and M clients through a seeded fault schedule —
//! partitions (full, asymmetric, partial), message loss, duplication
//! and jitter, node crashes and restarts, per-node clock skew — and
//! machine-checks the cluster's invariants after **every** event:
//!
//! 1. at most one unfenced primary per epoch;
//! 2. every acked journal prefix is byte-identical to the journal of
//!    the primary it was acked to;
//! 3. a settled `request_id` is answered byte-identically with zero
//!    recompute, forever (checked at every execution and across the
//!    wire);
//! 4. a fenced or diverged journal never grows;
//! 5. once faults stop, the cluster re-converges to exactly one
//!    unfenced primary and every request — including post-heal probes —
//!    settles within the run's virtual-time bound.
//!
//! Everything is a pure function of `(seed, config)`: events are
//! ordered by `(virtual time, insertion seq)`, all randomness comes
//! from one `SplitMix64` consumed in event order, and no hash-map
//! iteration order ever reaches the event queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::replicate::{ReplMsg, Role};

use crate::cluster::{Node, NodeTimer, Out, Timing};
use crate::{Scripted, SimConfig, SimReport};

/// Invariant bookkeeping for one node, fed from its executions and its
/// role transitions (the nodes themselves only run the shipped core).
#[derive(Debug, Default)]
pub(crate) struct Audit {
    /// Times each rid executed on this node.
    pub exec_count: HashMap<String, u64>,
    /// Journal length when the node was fenced or parked diverged: the
    /// frozen floor invariant 4 holds it to.
    pub frozen_len: Option<usize>,
    role: Option<Role>,
    pub promotions: u64,
    pub fences: u64,
}

impl Audit {
    pub(crate) fn new(node: &Node) -> Audit {
        let mut audit = Audit::default();
        audit.restarted(node);
        audit
    }

    /// Notes the node's role after an event.
    pub(crate) fn observe(&mut self, node: &Node) {
        let role = node.core.role();
        if self.role != Some(role) {
            match role {
                Role::Primary => self.promotions += 1,
                Role::Fenced => self.fences += 1,
                _ => {}
            }
            self.role = Some(role);
        }
        if (role == Role::Fenced || node.core.diverged()) && self.frozen_len.is_none() {
            self.frozen_len = Some(node.journal.len());
        }
    }

    /// A restart is not a transition: take the booted role as given.
    pub(crate) fn restarted(&mut self, node: &Node) {
        self.role = Some(node.core.role());
        self.frozen_len = None;
        self.observe(node);
    }

    /// One execution; returns a violation when it recomputed a key that
    /// was already settled.
    pub(crate) fn executed(&mut self, addr: &str, rid: String, settled: bool) -> Option<String> {
        *self.exec_count.entry(rid.clone()).or_insert(0) += 1;
        settled.then(|| format!("{addr}: recomputed settled request_id `{rid}`"))
    }
}

/// Sentinel incarnation for deliveries addressed to clients or the
/// router (they never crash, so the check never fires for them).
pub(crate) const CLIENT_INC: u64 = u64::MAX;

/// Hard ceiling on processed events: a scheduling bug must fail the
/// run, not hang the test suite.
pub(crate) const MAX_EVENTS: u64 = 2_000_000;

/// Stop collecting after this many violations; one broken invariant
/// tends to echo.
pub(crate) const MAX_VIOLATIONS: usize = 32;

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
    ClientTimeout {
        client: usize,
        token: u64,
    },
    ClientRetry {
        client: usize,
        token: u64,
    },
    Fault(FaultEv),
    End,
}

#[derive(Debug, Clone)]
enum FaultEv {
    Crash(usize),
    Restart(usize),
    /// Directed link cut: messages `from → to` are dropped.
    Cut(String, String),
    Uncut(String, String),
    /// Faults stop: clear every cut, zero loss/duplication, restart
    /// every crashed node, and issue the convergence probes.
    HealAll,
}

/// One queued event, ordered by `(virtual time, insertion seq)`.
pub(crate) struct Scheduled<E> {
    pub at: u64,
    pub seq: u64,
    pub ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Scheduled<E>) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Scheduled<E>) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Scheduled<E>) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One simulated client: walks the endpoint list on refusals and
/// timeouts, retries its idempotency key across failovers, and
/// deliberately re-sends settled keys to exercise the dedup path.
struct SimClient {
    name: String,
    cursor: usize,
    work: Vec<String>,
    idx: usize,
    /// The settled-key duplicate probe for the current rid was sent.
    dup_done: bool,
    /// Attempt guard: stale timeouts/retries carry an older token.
    token: u64,
    waiting: bool,
}

pub(crate) struct Harness<'a> {
    cfg: &'a SimConfig,
    seed: u64,
    nodes: Vec<Node>,
    audits: Vec<Audit>,
    node_addrs: Vec<String>,
    clients: Vec<SimClient>,
    queue: BinaryHeap<Reverse<Scheduled<Ev>>>,
    seq: u64,
    now: u64,
    rng: SplitMix64,
    cuts: HashSet<(String, String)>,
    drop_permille: u64,
    dup_permille: u64,
    /// First terminal response line per rid: the byte-identity oracle.
    settled: HashMap<String, String>,
    violations: Vec<String>,
    seen_violations: HashSet<String>,
    trace: Vec<String>,
    events: u64,
    answered: u64,
    faults_end: u64,
    final_primaries: usize,
}

pub(crate) fn run(seed: u64, cfg: &SimConfig) -> SimReport {
    let mut h = Harness::new(seed, cfg);
    h.setup();
    h.run_loop();
    h.report()
}

impl<'a> Harness<'a> {
    fn new(seed: u64, cfg: &'a SimConfig) -> Harness<'a> {
        let n = cfg.nodes.max(1);
        let node_addrs: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
        let timing = Timing {
            tick_ms: cfg.tick_ms,
            grace_ms: cfg.grace_ms,
            exec_ms: cfg.exec_ms,
        };
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let replica_of = (i != 0).then(|| node_addrs[0].clone());
                Node::new(i, &node_addrs, replica_of, timing, cfg.bug)
            })
            .collect();
        let clients = (0..cfg.clients)
            .map(|i| SimClient {
                name: format!("c{i}"),
                cursor: 0,
                work: (0..cfg.requests_per_client)
                    .map(|j| format!("c{i}-r{j}"))
                    .collect(),
                idx: 0,
                dup_done: false,
                token: 0,
                waiting: false,
            })
            .collect();
        Harness {
            cfg,
            seed,
            audits: nodes.iter().map(Audit::new).collect(),
            nodes,
            node_addrs,
            clients,
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            rng: SplitMix64::new(seed ^ 0x5EED_0F5E_ED00),
            cuts: HashSet::new(),
            drop_permille: cfg.drop_permille,
            dup_permille: cfg.dup_permille,
            settled: HashMap::new(),
            violations: Vec::new(),
            seen_violations: HashSet::new(),
            trace: Vec::new(),
            events: 0,
            answered: 0,
            faults_end: (cfg.sim_ms * 3 / 5).max(1),
            final_primaries: 0,
        }
    }

    fn setup(&mut self) {
        if self.cfg.skew {
            for node in &mut self.nodes {
                // Timers on this node run 0.8x–1.2x real rate.
                node.skew_num = 8 + self.rng.next_u64() % 5;
            }
        }
        self.plan_faults();
        for i in 0..self.nodes.len() {
            let at = self.tick_delay(i) + i as u64; // staggered first ticks
            let inc = self.nodes[i].incarnation;
            self.schedule(at, Ev::NodeTick { node: i, inc });
        }
        for ci in 0..self.clients.len() {
            self.client_send(ci);
        }
        self.schedule(self.cfg.sim_ms, Ev::End);
    }

    /// Seeds the fault schedule: randomized crashes and partitions when
    /// `auto_faults` is on, plus any scripted faults, plus the heal
    /// barrier at 3/5 of the run after which convergence is demanded.
    fn plan_faults(&mut self) {
        let end = self.faults_end;
        let lo = self.cfg.sim_ms / 8;
        let span = end.saturating_sub(lo).max(1);
        let n = self.nodes.len();
        if self.cfg.auto_faults {
            for _ in 0..self.cfg.crash_faults {
                let t = lo + self.rng.next_u64() % span;
                let i = (self.rng.next_u64() % n as u64) as usize;
                let dur = self.cfg.sim_ms / 10 + self.rng.next_u64() % (self.cfg.sim_ms / 5).max(1);
                self.schedule(t, Ev::Fault(FaultEv::Crash(i)));
                self.schedule((t + dur).min(end - 1), Ev::Fault(FaultEv::Restart(i)));
            }
            for _ in 0..self.cfg.partition_faults {
                let t = lo + self.rng.next_u64() % span;
                let dur = self.cfg.sim_ms / 10 + self.rng.next_u64() % (self.cfg.sim_ms / 5).max(1);
                let until = (t + dur).min(end - 1);
                let a = (self.rng.next_u64() % n as u64) as usize;
                let b = (a + 1 + (self.rng.next_u64() % (n as u64 - 1).max(1)) as usize) % n;
                let kind = self.rng.next_u64() % 3;
                let mut links: Vec<(String, String)> = Vec::new();
                match kind {
                    // Full isolation: node `a` loses both directions.
                    0 => {
                        for p in 0..n {
                            if p != a {
                                links
                                    .push((self.node_addrs[a].clone(), self.node_addrs[p].clone()));
                                links
                                    .push((self.node_addrs[p].clone(), self.node_addrs[a].clone()));
                            }
                        }
                    }
                    // Asymmetric: `a` can send but hears nothing back.
                    1 => {
                        for p in 0..n {
                            if p != a {
                                links
                                    .push((self.node_addrs[p].clone(), self.node_addrs[a].clone()));
                            }
                        }
                    }
                    // Partial: one pair severed both ways.
                    _ => {
                        links.push((self.node_addrs[a].clone(), self.node_addrs[b].clone()));
                        links.push((self.node_addrs[b].clone(), self.node_addrs[a].clone()));
                    }
                }
                for (x, y) in links {
                    self.schedule(t, Ev::Fault(FaultEv::Cut(x.clone(), y.clone())));
                    self.schedule(until, Ev::Fault(FaultEv::Uncut(x, y)));
                }
            }
        }
        let scripted = self.cfg.scripted.clone();
        for (t, s) in scripted {
            let t = t.min(end.saturating_sub(1));
            match s {
                Scripted::Crash(i) => self.schedule(t, Ev::Fault(FaultEv::Crash(i % n))),
                Scripted::Restart(i) => self.schedule(t, Ev::Fault(FaultEv::Restart(i % n))),
                Scripted::CutOneWay(a, b) => {
                    let (a, b) = (
                        self.node_addrs[a % n].clone(),
                        self.node_addrs[b % n].clone(),
                    );
                    self.schedule(t, Ev::Fault(FaultEv::Cut(a, b)));
                }
                Scripted::CutBoth(a, b) => {
                    let (a, b) = (
                        self.node_addrs[a % n].clone(),
                        self.node_addrs[b % n].clone(),
                    );
                    self.schedule(t, Ev::Fault(FaultEv::Cut(a.clone(), b.clone())));
                    self.schedule(t, Ev::Fault(FaultEv::Cut(b, a)));
                }
            }
        }
        self.schedule(end, Ev::Fault(FaultEv::HealAll));
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
                    let at = self.now + self.tick_delay(node);
                    self.schedule(at, Ev::NodeTick { node, inc });
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
                if let Some(ni) = self.node_index(&to) {
                    // The partition also swallows frames already in
                    // flight when it lands.
                    if self.cuts.contains(&(from.clone(), to.clone())) {
                        return;
                    }
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
            Ev::ClientTimeout { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    // No answer within the budget: walk to the next
                    // endpoint and retry the same idempotency key.
                    self.clients[client].cursor += 1;
                    self.client_send(client);
                }
            }
            Ev::ClientRetry { client, token } => {
                if self.clients[client].waiting && self.clients[client].token == token {
                    self.client_send(client);
                }
            }
            Ev::Fault(f) => self.handle_fault(f),
            Ev::End => {
                self.final_primaries = self
                    .nodes
                    .iter()
                    .filter(|n| n.up && n.core.role() == Role::Primary)
                    .count();
                if self.final_primaries != 1 {
                    self.violate(format!(
                        "invariant 5: {} unfenced primaries at end of run (want exactly 1)",
                        self.final_primaries
                    ));
                }
                let pending: Vec<String> = self
                    .clients
                    .iter()
                    .flat_map(|c| c.work.iter())
                    .filter(|rid| !self.settled.contains_key(*rid))
                    .cloned()
                    .collect();
                for rid in pending {
                    self.violate(format!(
                        "invariant 5: request `{rid}` never settled within {} virtual ms",
                        self.cfg.sim_ms
                    ));
                }
            }
        }
    }

    fn handle_fault(&mut self, f: FaultEv) {
        match f {
            FaultEv::Crash(i) => {
                if self.nodes[i].up {
                    self.nodes[i].crash();
                    let t = format!("t={}ms fault: crash {}", self.now, self.nodes[i].addr);
                    self.trace.push(t);
                }
            }
            FaultEv::Restart(i) => self.restart_node(i),
            FaultEv::Cut(a, b) => {
                if self.cuts.insert((a.clone(), b.clone())) {
                    self.trace
                        .push(format!("t={}ms fault: cut {a}->{b}", self.now));
                }
            }
            FaultEv::Uncut(a, b) => {
                if self.cuts.remove(&(a.clone(), b.clone())) {
                    self.trace
                        .push(format!("t={}ms fault: heal {a}->{b}", self.now));
                }
            }
            FaultEv::HealAll => {
                self.cuts.clear();
                self.drop_permille = 0;
                self.dup_permille = 0;
                self.trace.push(format!(
                    "t={}ms fault: heal-all (partitions cleared, loss/dup off)",
                    self.now
                ));
                for i in 0..self.nodes.len() {
                    if !self.nodes[i].up {
                        self.restart_node(i);
                    }
                }
                // Convergence probes: every client must complete one
                // more keyed request before the run ends (invariant 5).
                for ci in 0..self.clients.len() {
                    let probe = format!("probe-{}", self.clients[ci].name);
                    self.clients[ci].work.push(probe);
                    if !self.clients[ci].waiting {
                        self.client_send(ci);
                    }
                }
            }
        }
    }

    fn restart_node(&mut self, i: usize) {
        if self.nodes[i].up {
            return;
        }
        let mut outs = Vec::new();
        self.nodes[i].restart(self.now, &mut outs);
        self.audits[i].restarted(&self.nodes[i]);
        self.process_outs(i, outs);
        let inc = self.nodes[i].incarnation;
        let at = self.now + self.tick_delay(i);
        self.schedule(at, Ev::NodeTick { node: i, inc });
    }

    fn process_outs(&mut self, ni: usize, outs: Vec<Out>) {
        let from = self.nodes[ni].addr.clone();
        for out in outs {
            match out {
                Out::Send { to, line } => self.route(&from, &to, &line),
                Out::Timer { delay_ms, timer } => {
                    let d = (delay_ms * self.nodes[ni].skew_num / 10).max(1);
                    let inc = self.nodes[ni].incarnation;
                    self.schedule(
                        self.now + d,
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
                        self.violate(format!("invariant 3: {v}"));
                    }
                }
            }
        }
        self.audits[ni].observe(&self.nodes[ni]);
    }

    /// Puts one line on the wire: applies partitions, loss, duplication
    /// and jitter, captures the receiving incarnation — and intercepts
    /// follower acks to machine-check invariant 2 at the source.
    fn route(&mut self, from: &str, to: &str, line: &str) {
        if self.node_index(from).is_some() && self.node_index(to).is_some() {
            if let Some(ReplMsg::Ack { seq }) = ReplMsg::parse(line) {
                self.check_acked_prefix(from, to, seq);
            }
            if self.cuts.contains(&(from.to_string(), to.to_string())) {
                return;
            }
        }
        if self.chance(self.drop_permille) {
            return;
        }
        let delay = self.cfg.net_ms + self.rng.next_u64() % self.cfg.jitter_ms.max(1);
        let to_inc = self
            .node_index(to)
            .map_or(CLIENT_INC, |i| self.nodes[i].incarnation);
        let dup = self.chance(self.dup_permille);
        self.schedule(
            self.now + delay,
            Ev::Deliver {
                from: from.to_string(),
                to: to.to_string(),
                to_inc,
                line: line.to_string(),
            },
        );
        if dup {
            self.schedule(
                self.now + delay + self.cfg.net_ms.max(1),
                Ev::Deliver {
                    from: from.to_string(),
                    to: to.to_string(),
                    to_inc,
                    line: line.to_string(),
                },
            );
        }
    }

    /// Invariant 2: when a follower acks `seq` records to a primary,
    /// both journals must hold byte-identical records up to `seq`.
    fn check_acked_prefix(&mut self, follower: &str, primary: &str, seq: u64) {
        let (Some(fi), Some(pi)) = (self.node_index(follower), self.node_index(primary)) else {
            return;
        };
        let seq = usize::try_from(seq).unwrap_or(usize::MAX);
        let ok = match (
            self.nodes[fi].journal.get(..seq),
            self.nodes[pi].journal.get(..seq),
        ) {
            (Some(f), Some(p)) => f == p,
            _ => false,
        };
        if !ok {
            self.violate(format!(
                "invariant 2: {follower} acked seq {seq} but its journal prefix is not \
                 byte-identical to {primary}'s"
            ));
        }
    }

    fn client_send(&mut self, ci: usize) {
        let c = &mut self.clients[ci];
        if c.idx >= c.work.len() {
            c.waiting = false;
            return;
        }
        let rid = c.work[c.idx].clone();
        c.token += 1;
        c.waiting = true;
        let token = c.token;
        let endpoint = self.node_addrs[c.cursor % self.node_addrs.len()].clone();
        let from = c.name.clone();
        let line = WireRequest::new(rid.clone(), WireOp::Ping)
            .with_request_id(rid)
            .render_line()
            .trim_end()
            .to_string();
        self.route(&from, &endpoint, &line);
        self.schedule(
            self.now + self.cfg.client_timeout_ms,
            Ev::ClientTimeout { client: ci, token },
        );
    }

    fn client_on_line(&mut self, ci: usize, line: &str) {
        let Ok(resp) = WireResponse::parse(line) else {
            return;
        };
        let c = &self.clients[ci];
        if !c.waiting || c.idx >= c.work.len() {
            return;
        }
        let rid = c.work[c.idx].clone();
        if resp.id != rid {
            return; // a straggler for an earlier key
        }
        let terminal = match &resp.outcome {
            Ok(_) => true,
            // The simulated optimizer fails deterministically for some
            // keys; those settle as journaled `Fail` records and serve
            // retries like successes do.
            Err(f) => f.class == ErrorClass::Numerical,
        };
        if terminal {
            let got = line.trim_end().to_string();
            match self.settled.get(&rid) {
                Some(prev) if *prev != got => {
                    let prev = prev.clone();
                    self.violate(format!(
                        "invariant 3: `{rid}` answered differently across retries \
                         (first `{prev}`, then `{got}`)"
                    ));
                }
                Some(_) => {}
                None => {
                    self.settled.insert(rid.clone(), got);
                }
            }
            self.answered += 1;
            let c = &mut self.clients[ci];
            if !c.dup_done && c.idx.is_multiple_of(2) {
                // Dedup teeth: immediately re-send the settled key; the
                // answer must come back byte-identical (and, on any node
                // that holds the record, with zero recompute).
                c.dup_done = true;
            } else {
                c.dup_done = false;
                c.idx += 1;
            }
            self.client_send(ci);
            return;
        }
        let code = match &resp.outcome {
            Err(f) => f.code.clone(),
            Ok(_) => String::new(),
        };
        match code.as_str() {
            // Refusals that name the wrong server: walk on immediately.
            "RES-NOT-PRIMARY" | "RES-STALE-EPOCH" => {
                self.clients[ci].cursor += 1;
                self.client_send(ci);
            }
            // Our own earlier attempt is still executing there: give it
            // time to settle, then retry the same key (dedup answers).
            "RES-DUPLICATE-REQUEST" => {
                let token = self.clients[ci].token;
                self.schedule(
                    self.now + self.cfg.exec_ms * 2,
                    Ev::ClientRetry { client: ci, token },
                );
            }
            _ => {
                self.clients[ci].cursor += 1;
                self.client_send(ci);
            }
        }
    }

    /// Invariants 1 and 4, re-checked after every event.
    fn check_invariants(&mut self) {
        let mut primary_epochs: Vec<u64> = Vec::new();
        let mut dup_epoch = None;
        let mut frozen_grew = Vec::new();
        for (node, audit) in self.nodes.iter().zip(&self.audits) {
            let epoch = node.core.epoch();
            if node.up && node.core.role() == Role::Primary {
                if primary_epochs.contains(&epoch) {
                    dup_epoch = Some(epoch);
                }
                primary_epochs.push(epoch);
            }
            if let Some(frozen) = audit.frozen_len {
                if node.journal.len() != frozen {
                    frozen_grew.push(format!(
                        "invariant 4: fenced/diverged {} journal changed \
                         ({} records frozen, now {})",
                        node.addr,
                        frozen,
                        node.journal.len()
                    ));
                }
            }
        }
        if let Some(epoch) = dup_epoch {
            self.violate(format!(
                "invariant 1: two unfenced primaries share epoch {epoch}"
            ));
        }
        for v in frozen_grew {
            self.violate(v);
        }
    }

    /// Records a violation once (invariant checks re-fire every event).
    fn violate(&mut self, v: String) {
        if self.seen_violations.insert(v.clone()) {
            self.trace.push(format!("t={}ms VIOLATION {v}", self.now));
            self.violations.push(v);
        }
    }

    fn chance(&mut self, permille: u64) -> bool {
        permille > 0 && self.rng.next_u64() % 1000 < permille
    }

    fn tick_delay(&self, node: usize) -> u64 {
        (self.cfg.tick_ms * self.nodes[node].skew_num / 10).max(1)
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

    fn report(self) -> SimReport {
        SimReport {
            seed: self.seed,
            events: self.events,
            answered: self.answered,
            settled: self.settled.len() as u64,
            deduped: self.nodes.iter().map(|n| n.deduped).sum(),
            promotions: self.audits.iter().map(|a| a.promotions).sum(),
            fences: self.audits.iter().map(|a| a.fences).sum(),
            final_primaries: self.final_primaries,
            violations: self.violations,
            trace: self.trace,
        }
    }
}
