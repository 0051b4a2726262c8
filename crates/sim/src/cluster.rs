//! The simulated cluster node: a thin single-threaded shell around the
//! shipped [`ReplCore`] — the same state machine the threaded server
//! drives — over the simulator's message-passing network.
//!
//! The shell owns what a process owns and nothing more: durable state
//! (journal records and the epoch file, which survive a crash), the
//! dedup [`Admissions`] ledger, liveness (`up`, `incarnation`), clock
//! skew, and the request executor — a deterministic stand-in for the
//! optimizer ([`compute_response`]) that settles after a virtual
//! `exec_ms`. Every replication decision is the core's. Connections
//! become addressed lines on the event queue, so [`Effect::Close`] is a
//! no-op here: a lost connection is simply silence.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use lintra::matrix::rng::SplitMix64;
use lintra::ErrorClass;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireFailure, WireRequest, WireResponse};
use lintra_serve::journal::{fold_records, Admission, Admissions, JournalRecord, RecordKind};
use lintra_serve::replicate::{EpochState, ReplMsg, Role};
use lintra_serve::{CoreConfig, Effect, Event, ReplCore, Timer};

use crate::SimBug;

/// Side effects a node asks the harness to perform.
#[derive(Debug)]
pub(crate) enum Out {
    /// Send one wire line to an address (node or client).
    Send { to: String, line: String },
    /// Arm a timer against this node's current incarnation.
    Timer { delay_ms: u64, timer: NodeTimer },
    /// Append a line to the run trace.
    Trace(String),
    /// A request executed here; `settled` is true when its key already
    /// had a retry-serving answer — a recompute.
    Executed { rid: String, settled: bool },
}

/// Node-owned timers; all carry the incarnation that armed them, so a
/// crash invalidates them wholesale.
#[derive(Debug, Clone)]
pub(crate) enum NodeTimer {
    /// A journaled request finishes executing.
    Exec { rid: String, reply_to: String },
    /// A timer the replication core armed.
    Core(Timer),
}

/// The virtual timings a node's core and executor run on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timing {
    pub tick_ms: u64,
    pub grace_ms: u64,
    pub exec_ms: u64,
}

/// One simulated server.
pub(crate) struct Node {
    pub addr: String,
    cfg: CoreConfig,
    /// The configured primary (`--replica-of`): restart semantics
    /// depend on it.
    replica_of: Option<String>,
    bug: SimBug,
    exec_ms: u64,

    // --- durable state: survives crash/restart ---
    pub journal: Vec<JournalRecord>,
    epoch_file: EpochState,

    // --- volatile state: lost with the incarnation ---
    pub core: ReplCore,
    admissions: Admissions,
    pub up: bool,
    pub incarnation: u64,
    /// Timer skew: every delay is scaled by `skew_num / 10`.
    pub skew_num: u64,
    /// Retries answered from the journal with zero recompute.
    pub deduped: u64,
}

fn ms(t: u64) -> Duration {
    Duration::from_millis(t)
}

impl Node {
    pub(crate) fn new(
        index: usize,
        cluster: &[String],
        replica_of: Option<String>,
        timing: Timing,
        bug: SimBug,
    ) -> Node {
        let addr = cluster[index].clone();
        let cfg = CoreConfig {
            self_addr: addr.clone(),
            peers: cluster.iter().filter(|a| **a != addr).cloned().collect(),
            grace: ms(timing.grace_ms),
            // Every primary tick carries a heartbeat on an idle stream.
            heartbeat: ms(timing.tick_ms / 2),
            peer_timeout: ms(timing.tick_ms * 2),
            nonce: index as u64 + 1,
        };
        let epoch_file = EpochState {
            epoch: 1,
            fenced: false,
        };
        let core = ReplCore::new(
            cfg.clone(),
            epoch_file,
            replica_of.clone(),
            Vec::new(),
            ms(0),
        )
        .0;
        let mut node = Node {
            addr,
            cfg,
            replica_of,
            bug,
            exec_ms: timing.exec_ms,
            journal: Vec::new(),
            epoch_file,
            core,
            admissions: Admissions::default(),
            up: true,
            incarnation: 0,
            skew_num: 10,
            deduped: 0,
        };
        node.inject_bug();
        node
    }

    fn inject_bug(&mut self) {
        if self.bug == SimBug::CollidingPromotionEpoch {
            // The naive rule: observed + 1, so two partitioned followers
            // can promote into the *same* epoch.
            self.core.set_epoch_rule(|observed, _, _| observed + 1);
        }
    }

    /// Crash: volatile state is gone; journal and epoch file persist.
    pub(crate) fn crash(&mut self) {
        self.up = false;
        self.incarnation += 1;
    }

    /// Restart: a fresh core booted from the durable state, exactly as a
    /// restarted server process boots one.
    pub(crate) fn restart(&mut self, now: u64, outs: &mut Vec<Out>) {
        self.up = true;
        self.incarnation += 1;
        let (core, boot) = ReplCore::new(
            self.cfg.clone(),
            self.epoch_file,
            self.replica_of.clone(),
            self.journal.clone(),
            ms(now),
        );
        self.core = core;
        self.inject_bug();
        self.admissions = Admissions::new(fold_records(&self.journal).0);
        outs.push(Out::Trace(format!(
            "t={now}ms {}: restarted as {} (epoch {})",
            self.addr,
            self.core.role().label(),
            self.core.epoch()
        )));
        self.apply(boot, now, outs);
    }

    /// The periodic tick: the core's housekeeping, then heartbeats.
    pub(crate) fn on_tick(&mut self, now: u64, outs: &mut Vec<Out>) {
        let fx = self.core.step(Event::Tick, ms(now));
        self.apply(fx, now, outs);
        self.pump(now, outs);
    }

    /// One wire line arrives from `from`.
    pub(crate) fn on_line(&mut self, from: &str, line: &str, now: u64, outs: &mut Vec<Out>) {
        match ReplMsg::parse(line) {
            Some(ReplMsg::Status) => {
                let reply = self.core.status_reply(self.admissions.settled() as u64);
                outs.push(send(from, &reply.render_line()));
            }
            Some(msg) => {
                let event = Event::Msg {
                    from: from.to_string(),
                    msg,
                };
                let fx = self.core.step(event, ms(now));
                self.apply(fx, now, outs);
            }
            None => self.on_request(from, line, outs, now),
        }
    }

    pub(crate) fn on_timer(&mut self, timer: NodeTimer, now: u64, outs: &mut Vec<Out>) {
        match timer {
            NodeTimer::Exec { rid, reply_to } => {
                if self.core.role() != Role::Primary {
                    // Deposed mid-execution: the admit stays unsettled in
                    // our journal; whoever promoted replays it.
                    self.admissions.abandon(&rid);
                    return;
                }
                let line = self
                    .journal
                    .iter()
                    .rev()
                    .find(|r| r.kind == RecordKind::Admit && r.rid == rid)
                    .map(|r| r.line.clone())
                    .unwrap_or_default();
                self.execute(&rid, &line, Some(&reply_to), outs);
                self.pump(now, outs);
            }
            NodeTimer::Core(timer) => {
                let fx = self.core.step(Event::Timer(timer), ms(now));
                self.apply(fx, now, outs);
            }
        }
    }

    /// Carries out the core's effects; streams whatever the journal
    /// gained to every follower afterwards (the condvar wake).
    fn apply(&mut self, fx: Vec<Effect>, now: u64, outs: &mut Vec<Out>) {
        let mut queue = VecDeque::from(fx);
        let grew = self.journal.len();
        while let Some(effect) = queue.pop_front() {
            match effect {
                Effect::Send { to, msg } => outs.push(send(&to, &msg.render_line())),
                Effect::Close { .. } => {}
                Effect::Append(rec) => self.append(rec),
                Effect::PersistEpoch(state) => self.epoch_file = state,
                Effect::Timer { after, timer } if after.is_zero() => {
                    queue.extend(self.core.step(Event::Timer(timer), ms(now)));
                }
                Effect::Timer { after, timer } => outs.push(Out::Timer {
                    delay_ms: after.as_millis() as u64,
                    timer: NodeTimer::Core(timer),
                }),
                Effect::Execute { rid, line } => self.execute(&rid, &line, None, outs),
                Effect::Trace(text) => {
                    outs.push(Out::Trace(format!("t={now}ms {}: {text}", self.addr)));
                }
            }
        }
        if self.journal.len() > grew {
            self.pump(now, outs);
        }
    }

    /// Lets every primary-side stream ship what it has.
    fn pump(&mut self, now: u64, outs: &mut Vec<Out>) {
        for link in self.core.stream_links() {
            for effect in self.core.step(Event::Pump { link }, ms(now)) {
                if let Effect::Send { to, msg } = effect {
                    outs.push(send(&to, &msg.render_line()));
                }
            }
        }
    }

    /// Journals one record (durable on push) and hands it to the core.
    fn append(&mut self, rec: JournalRecord) {
        self.admissions.apply(&rec);
        self.journal.push(rec.clone());
        self.core.publish(rec);
    }

    /// A client request line (the real wire schema): the core's role
    /// gate, then the dedup ledger, then admit and execute.
    fn on_request(&mut self, from: &str, line: &str, outs: &mut Vec<Out>, now: u64) {
        let req = match WireRequest::parse(line) {
            Ok(req) => req,
            Err(e) => {
                let resp = WireResponse::err(
                    "",
                    failure(ErrorClass::Validation, "VAL-MALFORMED-REQUEST", e),
                );
                outs.push(send(from, &resp.render_line()));
                return;
            }
        };
        // Every simulated request stands in for compute.
        if let Err((code, message)) = self.core.gate(true) {
            let resp = WireResponse::err(req.id, failure(ErrorClass::Resource, code, message));
            outs.push(send(from, &resp.render_line()));
            return;
        }
        let Some(rid) = req.request_id.clone() else {
            // Unkeyed requests answer immediately (ping-like).
            let resp = WireResponse::ok(req.id, Json::obj([]));
            outs.push(send(from, &resp.render_line()));
            return;
        };
        let resp = match self.admissions.admit(&rid) {
            Admission::Answer(stored) => {
                // Byte-identical journal-served retry, zero recompute.
                self.deduped += 1;
                match WireResponse::parse(&stored) {
                    Ok(mut resp) => {
                        resp.id = req.id;
                        resp
                    }
                    Err(_) => WireResponse::err(
                        req.id,
                        failure(
                            ErrorClass::Io,
                            "IO-FAILURE",
                            "journaled response unreadable",
                        ),
                    ),
                }
            }
            Admission::Duplicate => WireResponse::err(
                req.id,
                failure(
                    ErrorClass::Resource,
                    "RES-DUPLICATE-REQUEST",
                    format!("request_id `{rid}` is already executing"),
                ),
            ),
            Admission::Fresh => {
                // Admit: journal (fsync) before execution, replicate, execute.
                self.append(JournalRecord {
                    kind: RecordKind::Admit,
                    rid: rid.clone(),
                    line: line.trim_end().to_string(),
                });
                self.pump(now, outs);
                outs.push(Out::Timer {
                    delay_ms: self.exec_ms,
                    timer: NodeTimer::Exec {
                        rid,
                        reply_to: from.to_string(),
                    },
                });
                return;
            }
        };
        outs.push(send(from, &resp.render_line()));
    }

    /// Executes one admitted request: deterministic compute, Done/Fail
    /// journal record, reply (when a client is still attached).
    fn execute(&mut self, rid: &str, line: &str, reply_to: Option<&str>, outs: &mut Vec<Out>) {
        outs.push(Out::Executed {
            rid: rid.to_string(),
            settled: self.admissions.answer(rid).is_some(),
        });
        let resp = compute_response(rid, line);
        let kind = if resp.outcome.is_ok() {
            RecordKind::Done
        } else {
            RecordKind::Fail
        };
        let resp_line = resp.render_line().trim_end().to_string();
        self.append(JournalRecord {
            kind,
            rid: rid.to_string(),
            line: resp_line.clone(),
        });
        if let Some(to) = reply_to {
            outs.push(send(to, &resp_line));
        }
    }
}

fn send(to: &str, line: &str) -> Out {
    Out::Send {
        to: to.to_string(),
        line: line.trim_end().to_string(),
    }
}

pub(crate) fn failure(class: ErrorClass, code: &str, message: impl Into<String>) -> WireFailure {
    WireFailure {
        class,
        code: code.to_string(),
        message: message.into(),
    }
}

/// The simulated optimizer: a pure function of the request key, so a
/// replay or a recompute on another node produces byte-identical output
/// — which is exactly what lets the harness check response identity
/// structurally while `exec_count` separately proves zero recompute.
/// One in seven keys fails deterministically (a classified `Fail`
/// completion), so the retry-serving path covers failures too.
pub(crate) fn compute_response(rid: &str, line: &str) -> WireResponse {
    let mut hasher = DefaultHasher::new();
    rid.hash(&mut hasher);
    line.hash(&mut hasher);
    let mut rng = SplitMix64::new(hasher.finish());
    let value = rng.next_u64() & ((1 << 53) - 1);
    if value.is_multiple_of(7) {
        WireResponse::err(
            rid,
            failure(
                ErrorClass::Numerical,
                "NUM-NONFINITE",
                format!("simulated deterministic failure for `{rid}`"),
            ),
        )
    } else {
        WireResponse::ok(rid, Json::obj([("sim_result", Json::Num(value as f64))]))
    }
}
