//! The sans-IO replication core: every protocol decision of
//! [`crate::replicate`] as one pure state machine.
//!
//! [`ReplCore::step`] takes an [`Event`] and the current clock reading
//! and returns the [`Effect`]s the caller must carry out, in order. The
//! core never touches a socket, a file or a clock, so two shells drive
//! the *same* code: the threaded server (`replicate.rs`: sockets, fsync,
//! `Clock`, chaos hooks) and the deterministic simulator (`lintra-sim`:
//! a virtual network and virtual time).
//!
//! The shell's one obligation beyond "do what the effects say" is the
//! durability rule: an [`Effect::Append`] must be durable — journaled,
//! fsync'd and handed back through [`ReplCore::publish`] — before any
//! later effect of the same batch runs, so a follower's ack always
//! follows the fsync of the record it acknowledges.

use std::time::Duration;

use lintra::engine::snapshot::crc32;

use crate::journal::{fold_records, payload_bytes, JournalRecord};
use crate::replicate::{prefix_crc, promotion_epoch, EpochState, ReplMsg, Role};

/// The static parameters of one replica.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// This replica's own address (promotion slot, tiebreaks, hellos).
    pub self_addr: String,
    /// The other cluster members: arbitration asks them, the guard
    /// watches them, and with `self_addr` they fix the promotion stride.
    pub peers: Vec<String>,
    /// Primary silence a follower tolerates before arbitrating.
    pub grace: Duration,
    /// Idle interval after which a stream carries a heartbeat.
    pub heartbeat: Duration,
    /// How long an arbitration round waits for status replies.
    pub peer_timeout: Duration,
    /// This process's identity nonce ([`ReplMsg::StatusReply`]).
    pub nonce: u64,
}

/// One input to [`ReplCore::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Periodic housekeeping: a follower checks its grace and (re)dials
    /// its primary; a primary runs the guard's probes.
    Tick,
    /// A replication message arrived from `from` (a peer address, or a
    /// stream link name for a follower's hello).
    Msg {
        /// Who sent it.
        from: String,
        /// The message.
        msg: ReplMsg,
    },
    /// A primary-side stream may ship records (the log grew, or the
    /// heartbeat interval may have passed).
    Pump {
        /// The stream, named by the link its hello arrived on.
        link: String,
    },
    /// The shell connected to `peer` and delivered the follower hello.
    LinkUp {
        /// The primary dialed.
        peer: String,
    },
    /// The connection to `peer` (a primary, or a stream link) ended.
    LinkDown {
        /// The peer or link whose connection ended.
        peer: String,
    },
    /// A timer armed by an [`Effect::Timer`] fired.
    Timer(Timer),
}

/// Timers the core arms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Timer {
    /// An arbitration round's reply window closed: decide.
    Decide {
        /// The round the timer belongs to.
        round: u64,
    },
    /// The promotion's replays ran: start serving as primary.
    Promoted,
}

/// One thing the shell must do, in batch order.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Deliver `msg` to `to`. A follower hello to its primary opens the
    /// stream; a status query or fence hello is a one-shot exchange whose
    /// reply comes back as an [`Event::Msg`].
    Send {
        /// Destination address or stream link.
        to: String,
        /// The message.
        msg: ReplMsg,
    },
    /// Tear down the connection to `peer` (no-op when there is none).
    Close {
        /// The peer or link to disconnect.
        peer: String,
    },
    /// Make this replicated record durable, then hand it back through
    /// [`ReplCore::publish`] before running any later effect.
    Append(JournalRecord),
    /// Persist the epoch file.
    PersistEpoch(EpochState),
    /// Arm a timer; a zero delay means "once the preceding effects ran".
    Timer {
        /// Delay before the timer fires.
        after: Duration,
        /// What fires.
        timer: Timer,
    },
    /// Execute an admitted-but-unsettled request and settle it.
    Execute {
        /// Idempotency key.
        rid: String,
        /// The journaled request line.
        line: String,
    },
    /// One human-readable event line for the log or the sim trace.
    Trace(String),
}

/// The status-reply role of a follower parked diverged: it will never
/// promote, so a better-acked diverged peer must not win arbitration.
const DIVERGED: &str = "diverged";

/// The promotion-epoch rule: `(observed, peers, self_addr) -> epoch`.
pub type EpochRule = fn(u64, &[String], &str) -> u64;

/// One primary-side follower stream.
#[derive(Debug)]
struct Stream {
    link: String,
    /// Records already shipped on this link.
    cursor: u64,
    last_sent: Duration,
}

/// Status replies collected during one arbitration round:
/// `(peer, role label, epoch, seq)` in arrival order.
#[derive(Debug)]
struct Arbitration {
    round: u64,
    replies: Vec<(String, String, u64, u64)>,
}

/// The replication state of one server. See the module docs.
#[derive(Debug)]
pub struct ReplCore {
    cfg: CoreConfig,
    epoch: u64,
    role: Role,
    primary: Option<String>,
    /// The primary this node was promoted over; the guard keeps
    /// sending it fencing hellos.
    former_primary: Option<String>,
    diverged: bool,
    /// The acked journal image: sequence number `s` is `log[s - 1]`.
    log: Vec<JournalRecord>,
    streams: Vec<Stream>,
    /// Follower: a stream from the primary is live.
    linked: bool,
    last_contact: Duration,
    arb: Option<Arbitration>,
    rounds: u64,
    fenced_by: u64,
    promoted_replayed: u64,
    corrupt_refused: u64,
    epoch_rule: EpochRule,
}

impl ReplCore {
    /// Boots a replica from its persisted epoch state and journal, with
    /// the restart semantics of a real process: an explicit `replica_of`
    /// rejoin clears a persisted fence (the hello's prefix checksum still
    /// guards the resync), a fenced standalone server stays fenced, and
    /// an unfenced standalone server is primary and first replays its
    /// admitted-but-unsettled records. Returns the boot effects.
    pub fn new(
        cfg: CoreConfig,
        state: EpochState,
        replica_of: Option<String>,
        log: Vec<JournalRecord>,
        now: Duration,
    ) -> (ReplCore, Vec<Effect>) {
        let mut fx = Vec::new();
        let (role, fenced_by) = match (&replica_of, state.fenced) {
            (Some(_), fenced) => {
                if fenced {
                    fx.push(Effect::PersistEpoch(EpochState {
                        epoch: state.epoch,
                        fenced: false,
                    }));
                }
                (Role::Follower, 0)
            }
            (None, true) => (Role::Fenced, state.epoch),
            (None, false) => {
                for (rid, line) in fold_records(&log).1 {
                    fx.push(Effect::Execute { rid, line });
                }
                (Role::Primary, 0)
            }
        };
        let core = ReplCore {
            cfg,
            epoch: state.epoch,
            role,
            primary: replica_of,
            former_primary: None,
            diverged: false,
            log,
            streams: Vec::new(),
            linked: false,
            last_contact: now,
            arb: None,
            rounds: 0,
            fenced_by,
            promoted_replayed: 0,
            corrupt_refused: 0,
            epoch_rule: promotion_epoch,
        };
        (core, fx)
    }

    /// Test seam: replaces the promotion-epoch rule, so a simulation can
    /// re-introduce a colliding rule and prove its invariants catch it.
    #[doc(hidden)]
    pub fn set_epoch_rule(&mut self, rule: EpochRule) {
        self.epoch_rule = rule;
    }

    /// Advances the machine by one event; returns the effects to carry
    /// out, in order.
    pub fn step(&mut self, event: Event, now: Duration) -> Vec<Effect> {
        let mut fx = Vec::new();
        match event {
            Event::Tick => self.on_tick(now, &mut fx),
            Event::Msg { from, msg } => self.on_msg(from, msg, now, &mut fx),
            Event::Pump { link } => self.pump(&link, now, &mut fx),
            Event::LinkUp { peer } => {
                if self.streaming_from(&peer) {
                    self.linked = true;
                    self.last_contact = now;
                }
            }
            Event::LinkDown { peer } => {
                self.streams.retain(|s| s.link != peer);
                if self.primary.as_deref() == Some(peer.as_str()) {
                    self.linked = false;
                }
            }
            Event::Timer(Timer::Decide { round }) => self.decide(round, now, &mut fx),
            Event::Timer(Timer::Promoted) => {
                if self.role == Role::Promoting {
                    self.role = Role::Primary;
                }
            }
        }
        fx
    }

    /// Appends a record that is now durable in the journal — a primary's
    /// own admission or completion, or an [`Effect::Append`] the shell
    /// carried out.
    pub fn publish(&mut self, rec: JournalRecord) {
        self.log.push(rec);
    }

    /// The request role gate: `Err((code, message))` when this server
    /// must refuse a request. A fenced server refuses everything, pings
    /// included; a follower refuses compute and names its primary.
    pub fn gate(&self, compute: bool) -> Result<(), (&'static str, String)> {
        match self.role {
            Role::Fenced => {
                let (epoch, by) = (self.epoch, self.fenced_by);
                // After a restart the superseded epoch is no longer known
                // — the epoch file only carries the superseding one.
                Err((
                    "RES-STALE-EPOCH",
                    if epoch < by {
                        format!(
                            "epoch {epoch} was superseded by epoch {by}; this server is \
                             fenced — talk to the current primary"
                        )
                    } else {
                        format!(
                            "this server is durably fenced as of epoch {by} — talk to the \
                             current primary, or rejoin it with --replica-of"
                        )
                    },
                ))
            }
            Role::Follower | Role::Promoting if compute => {
                let hint = self
                    .primary
                    .as_ref()
                    .map(|p| format!("; the primary is {p}"))
                    .unwrap_or_default();
                Err((
                    "RES-NOT-PRIMARY",
                    format!(
                        "this server is a {} replica and does not accept compute requests{hint}",
                        self.role.label()
                    ),
                ))
            }
            _ => Ok(()),
        }
    }

    /// The answer to a `{"repl":"status"}` query; `answered` is the
    /// shell's count of settled keys. A parked diverged follower says so
    /// (role `diverged`), so no arbitration defers to it forever.
    pub fn status_reply(&self, answered: u64) -> ReplMsg {
        let role = if self.diverged {
            DIVERGED
        } else {
            self.role.label()
        };
        ReplMsg::StatusReply {
            role: role.to_string(),
            epoch: self.epoch,
            seq: self.seq(),
            answered,
            nonce: self.cfg.nonce,
            primary: self.primary.clone(),
        }
    }

    /// This replica's own address.
    pub fn self_addr(&self) -> &str {
        &self.cfg.self_addr
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The primary a follower replicates from.
    pub fn primary(&self) -> Option<&str> {
        self.primary.as_deref()
    }

    /// Current epoch (term).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current sequence number (records in the log).
    pub fn seq(&self) -> u64 {
        self.log.len() as u64
    }

    /// The epoch that fenced this server (0 = not fenced).
    pub fn fenced_by(&self) -> u64 {
        self.fenced_by
    }

    /// Records replayed by promotions of this core.
    pub fn promoted_replayed(&self) -> u64 {
        self.promoted_replayed
    }

    /// Replicated records refused for a checksum mismatch.
    pub fn corrupt_refused(&self) -> u64 {
        self.corrupt_refused
    }

    /// True once the primary proved this follower's journal is not a
    /// prefix of its own: replication stopped, promotion disabled.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// The primary-side streams, in registration order.
    pub fn stream_links(&self) -> Vec<String> {
        self.streams.iter().map(|s| s.link.clone()).collect()
    }

    /// True when a [`Event::Pump`] on `link` has records to ship, or the
    /// stream must be closed.
    pub fn has_pending(&self, link: &str) -> bool {
        self.role != Role::Primary
            || self
                .streams
                .iter()
                .find(|s| s.link == link)
                .is_none_or(|s| s.cursor < self.seq())
    }

    // --- follower side ----------------------------------------------------

    fn streaming_from(&self, from: &str) -> bool {
        self.role == Role::Follower && !self.diverged && self.primary.as_deref() == Some(from)
    }

    fn on_tick(&mut self, now: Duration, fx: &mut Vec<Effect>) {
        match self.role {
            Role::Follower if !self.diverged && self.arb.is_none() => {
                if now.saturating_sub(self.last_contact) > self.cfg.grace {
                    self.drop_link(fx);
                    self.arbitrate(fx);
                } else if !self.linked {
                    if let Some(primary) = self.primary.clone() {
                        fx.push(self.hello_to(primary));
                    }
                }
            }
            Role::Primary => {
                // The guard: keep the deposed primary fenced, and watch
                // every peer for a higher epoch.
                if let Some(former) = self.former_primary.clone() {
                    fx.push(self.hello_to(former));
                }
                for peer in self.peers() {
                    fx.push(Effect::Send {
                        to: peer,
                        msg: ReplMsg::Status,
                    });
                }
            }
            _ => {}
        }
    }

    fn on_msg(&mut self, from: String, msg: ReplMsg, now: Duration, fx: &mut Vec<Effect>) {
        match msg {
            ReplMsg::Hello {
                epoch,
                have,
                pcrc,
                from: origin,
            } => self.on_hello(from, epoch, have, pcrc, &origin, now, fx),
            ReplMsg::Rec {
                epoch,
                seq,
                crc,
                kind,
                rid,
                line,
            } => {
                if self.streaming_from(&from) {
                    self.on_rec(
                        from,
                        epoch,
                        seq,
                        crc,
                        JournalRecord { kind, rid, line },
                        now,
                        fx,
                    );
                } else {
                    self.fence_on_reply(&from, epoch, fx);
                }
            }
            ReplMsg::Hb { epoch, .. } => {
                // The heartbeat's `seq` is informational: a lost record
                // shows up as a gap on the next `rec`, not here.
                if self.streaming_from(&from) {
                    if epoch < self.epoch {
                        self.deposed(fx);
                        return;
                    }
                    self.adopt_epoch(epoch, fx);
                    self.last_contact = now;
                    self.linked = true;
                } else {
                    self.fence_on_reply(&from, epoch, fx);
                }
            }
            ReplMsg::Err { code, epoch } if self.streaming_from(&from) => {
                self.adopt_epoch(epoch, fx);
                match code.as_str() {
                    "RES-STALE-EPOCH" => self.deposed(fx),
                    "IO-REPL-CORRUPT" => {
                        // Resyncing would silently fork journals;
                        // promotion would serve a history the cluster
                        // never agreed on. Park read-only until the
                        // operator wipes and re-seeds this journal.
                        self.diverged = true;
                        self.drop_link(fx);
                        fx.push(Effect::Trace(format!(
                            "journal diverged from primary {from} (IO-REPL-CORRUPT): this \
                             follower's journal is not a prefix of the primary's; replication \
                             stopped and promotion disabled — wipe the journal directory and \
                             re-seed"
                        )));
                    }
                    // Not (yet) a primary: retry shortly.
                    _ => self.drop_link(fx),
                }
            }
            ReplMsg::StatusReply {
                role,
                epoch,
                seq,
                nonce,
                ..
            } => self.on_status(from, role, epoch, seq, nonce, fx),
            // Acks are observability only; status queries are answered by
            // the shell from [`ReplCore::status_reply`].
            ReplMsg::Err { .. } | ReplMsg::Ack { .. } | ReplMsg::Status => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_rec(
        &mut self,
        from: String,
        epoch: u64,
        seq: u64,
        crc: u32,
        rec: JournalRecord,
        now: Duration,
        fx: &mut Vec<Effect>,
    ) {
        if epoch < self.epoch {
            // Records from a lower epoch are refused, always.
            fx.push(self.err_to(from, "RES-STALE-EPOCH"));
            self.deposed(fx);
            return;
        }
        self.adopt_epoch(epoch, fx);
        self.last_contact = now;
        self.linked = true;
        let have = self.seq();
        if seq <= have {
            // Already durable (reconnect overlap): re-ack.
            fx.push(Effect::Send {
                to: from,
                msg: ReplMsg::Ack { seq: have },
            });
        } else if seq != have + 1 {
            // A gap means the stream lost sync; resync fresh.
            self.drop_link(fx);
        } else if crc32(&payload_bytes(rec.kind, &rec.rid, &rec.line)) != crc {
            // IO-REPL-CORRUPT: never append a record that fails its
            // checksum; drop the link and resync from the acked prefix.
            self.corrupt_refused += 1;
            fx.push(self.err_to(from, "IO-REPL-CORRUPT"));
            self.drop_link(fx);
        } else {
            fx.push(Effect::Append(rec));
            fx.push(Effect::Send {
                to: from,
                msg: ReplMsg::Ack { seq },
            });
        }
    }

    /// The followed primary proved it is stale: failover already
    /// happened somewhere, so arbitrate now rather than after the grace.
    fn deposed(&mut self, fx: &mut Vec<Effect>) {
        self.drop_link(fx);
        self.arbitrate(fx);
    }

    fn drop_link(&mut self, fx: &mut Vec<Effect>) {
        self.linked = false;
        if let Some(primary) = self.primary.clone() {
            fx.push(Effect::Close { peer: primary });
        }
    }

    fn adopt_epoch(&mut self, epoch: u64, fx: &mut Vec<Effect>) {
        if epoch > self.epoch {
            self.epoch = epoch;
            fx.push(Effect::PersistEpoch(EpochState {
                epoch,
                fenced: false,
            }));
        }
    }

    // --- arbitration and promotion -----------------------------------------

    /// Opens an arbitration round: ask every peer for its status, decide
    /// when the window closes. An unreachable peer never blocks failover.
    fn arbitrate(&mut self, fx: &mut Vec<Effect>) {
        if self.diverged {
            return;
        }
        self.rounds += 1;
        self.arb = Some(Arbitration {
            round: self.rounds,
            replies: Vec::new(),
        });
        for peer in self.peers() {
            fx.push(Effect::Send {
                to: peer,
                msg: ReplMsg::Status,
            });
        }
        fx.push(Effect::Timer {
            after: self.cfg.peer_timeout,
            timer: Timer::Decide { round: self.rounds },
        });
    }

    /// The round's window closed: adopt a peer that already promoted,
    /// defer to a better-acked live peer, or promote.
    fn decide(&mut self, round: u64, now: Duration, fx: &mut Vec<Effect>) {
        let Some(arb) = self.arb.take_if(|a| a.round == round) else {
            return;
        };
        if self.role != Role::Follower || self.diverged {
            return;
        }
        let (my_epoch, my_seq) = (self.epoch, self.seq());
        let mut max_epoch = my_epoch;
        let mut defer = false;
        for (peer, role, epoch, seq) in arb.replies {
            max_epoch = max_epoch.max(epoch);
            if role == "primary" && epoch >= my_epoch {
                fx.push(Effect::Trace(format!(
                    "adopting promoted primary {peer} (epoch {epoch})"
                )));
                self.primary = Some(peer);
                self.linked = false;
                self.last_contact = now;
                return;
            }
            if role != Role::Fenced.label()
                && role != DIVERGED
                && (seq > my_seq || (seq == my_seq && peer.as_str() < self.cfg.self_addr.as_str()))
            {
                fx.push(Effect::Trace(format!(
                    "arbitration deferring to {peer} (peer seq {seq} epoch {epoch} vs ours \
                     seq {my_seq} epoch {my_epoch})"
                )));
                defer = true;
            }
        }
        if defer {
            // The deferred-to peer either promotes (adopted next round)
            // or dies (no longer deferred to) within another grace.
            self.last_contact = now;
            return;
        }
        self.promote(max_epoch, fx);
    }

    /// Promotes: a collision-free epoch past everything observed, then
    /// replay of admitted-but-unsettled records before taking writes.
    fn promote(&mut self, observed: u64, fx: &mut Vec<Effect>) {
        let epoch = (self.epoch_rule)(
            observed.max(self.epoch),
            &self.cfg.peers,
            &self.cfg.self_addr,
        );
        self.epoch = epoch;
        self.role = Role::Promoting;
        self.former_primary = self.primary.take();
        self.linked = false;
        self.streams.clear();
        fx.push(Effect::PersistEpoch(EpochState {
            epoch,
            fenced: false,
        }));
        let incomplete = fold_records(&self.log).1;
        fx.push(Effect::Trace(format!(
            "promoted to epoch {epoch}, replaying {} unsettled record(s)",
            incomplete.len()
        )));
        self.promoted_replayed += incomplete.len() as u64;
        for (rid, line) in incomplete {
            fx.push(Effect::Execute { rid, line });
        }
        fx.push(Effect::Timer {
            after: Duration::ZERO,
            timer: Timer::Promoted,
        });
    }

    // --- primary side -------------------------------------------------------

    /// A follower's hello: a higher epoch fences us on sight; otherwise
    /// only a primary streams, and only to a follower whose journal is a
    /// verified prefix of ours.
    #[allow(clippy::too_many_arguments)]
    fn on_hello(
        &mut self,
        link: String,
        epoch: u64,
        have: u64,
        pcrc: u32,
        origin: &str,
        now: Duration,
        fx: &mut Vec<Effect>,
    ) {
        if epoch > self.epoch {
            if self.role != Role::Fenced {
                fx.push(Effect::Trace(format!(
                    "hello from {origin} carries epoch {epoch} against our epoch {}: \
                     fencing ourselves",
                    self.epoch
                )));
            }
            self.fence(epoch, fx);
            self.refuse(link, "RES-STALE-EPOCH", fx);
            return;
        }
        match self.role {
            Role::Primary => {}
            Role::Fenced => return self.refuse(link, "RES-STALE-EPOCH", fx),
            _ => return self.refuse(link, "RES-NOT-PRIMARY", fx),
        }
        // Resync is only sound when the follower's journal is a strict
        // prefix of ours: a follower claiming more records than we hold,
        // or whose prefix checksum disagrees, has diverged.
        let prefix_matches = usize::try_from(have)
            .ok()
            .and_then(|have| self.log.get(..have))
            .is_some_and(|prefix| prefix_crc(prefix) == pcrc);
        if !prefix_matches {
            return self.refuse(link, "IO-REPL-CORRUPT", fx);
        }
        self.streams.retain(|s| s.link != link);
        self.streams.push(Stream {
            link: link.clone(),
            cursor: have,
            last_sent: now,
        });
        self.pump(&link, now, fx);
    }

    /// Ships every record past the stream's cursor, plus a heartbeat when
    /// the link has been idle for the heartbeat interval.
    fn pump(&mut self, link: &str, now: Duration, fx: &mut Vec<Effect>) {
        let epoch = self.epoch;
        let stream = self.streams.iter_mut().find(|s| s.link == link);
        let Some(stream) = stream.filter(|_| self.role == Role::Primary) else {
            fx.push(Effect::Close {
                peer: link.to_string(),
            });
            return;
        };
        let from = usize::try_from(stream.cursor).unwrap_or(usize::MAX);
        for (i, rec) in self.log.iter().enumerate().skip(from) {
            fx.push(Effect::Send {
                to: link.to_string(),
                msg: ReplMsg::Rec {
                    epoch,
                    seq: i as u64 + 1,
                    crc: crc32(&payload_bytes(rec.kind, &rec.rid, &rec.line)),
                    kind: rec.kind,
                    rid: rec.rid.clone(),
                    line: rec.line.clone(),
                },
            });
            stream.last_sent = now;
        }
        let seq = self.log.len() as u64;
        stream.cursor = stream.cursor.max(seq);
        if now.saturating_sub(stream.last_sent) >= self.cfg.heartbeat {
            fx.push(Effect::Send {
                to: link.to_string(),
                msg: ReplMsg::Hb { epoch, seq },
            });
            stream.last_sent = now;
        }
    }

    /// A reply to one of our fencing hellos (or a stream we no longer
    /// follow) proves a higher epoch exists: fence ourselves.
    fn fence_on_reply(&mut self, from: &str, epoch: u64, fx: &mut Vec<Effect>) {
        if self.role == Role::Primary && epoch > self.epoch {
            fx.push(Effect::Trace(format!(
                "{from} streams epoch {epoch} against our epoch {}: fencing ourselves",
                self.epoch
            )));
            self.fence(epoch, fx);
        }
    }

    /// A status reply: arbitration material for a follower mid-round,
    /// the guard's fencing check for a primary.
    fn on_status(
        &mut self,
        from: String,
        role: String,
        epoch: u64,
        seq: u64,
        nonce: u64,
        fx: &mut Vec<Effect>,
    ) {
        if nonce == self.cfg.nonce {
            // `from` is this very server under an alias (hostname vs IP,
            // 0.0.0.0 bind): deferring to it — or fencing on it — would
            // act on our own reflection.
            return;
        }
        if let Some(arb) = &mut self.arb {
            arb.replies.push((from, role, epoch, seq));
            return;
        }
        // The guard: a higher epoch anywhere — or a primary at the same
        // epoch with a lexicographically smaller address (the equal-epoch
        // tiebreak; promotion epochs are collision-free, so only operator
        // error can seed it) — supersedes us.
        let superseded = epoch > self.epoch
            || (epoch == self.epoch
                && role == "primary"
                && from.as_str() < self.cfg.self_addr.as_str());
        if self.role == Role::Primary && superseded {
            fx.push(Effect::Trace(format!(
                "peer {from} holds epoch {epoch} (role {role}) against our epoch {}: \
                 fencing ourselves",
                self.epoch
            )));
            self.fence(epoch, fx);
        }
    }

    /// Fences this server: every later request is refused with
    /// `RES-STALE-EPOCH`, and the fence is persisted so a restart comes
    /// back fenced. Idempotent for a fence we already hold.
    fn fence(&mut self, superseded_by: u64, fx: &mut Vec<Effect>) {
        if self.role == Role::Fenced && superseded_by <= self.fenced_by {
            return;
        }
        fx.push(Effect::PersistEpoch(EpochState {
            epoch: superseded_by.max(self.epoch),
            fenced: true,
        }));
        self.fenced_by = superseded_by;
        self.role = Role::Fenced;
        self.primary = None;
        self.linked = false;
        self.streams.clear();
        self.arb = None;
    }

    fn refuse(&mut self, link: String, code: &str, fx: &mut Vec<Effect>) {
        fx.push(self.err_to(link.clone(), code));
        fx.push(Effect::Close { peer: link });
    }

    fn err_to(&self, to: String, code: &str) -> Effect {
        Effect::Send {
            to,
            msg: ReplMsg::Err {
                code: code.to_string(),
                epoch: self.epoch,
            },
        }
    }

    fn hello_to(&self, to: String) -> Effect {
        Effect::Send {
            to,
            msg: ReplMsg::Hello {
                epoch: self.epoch,
                have: self.seq(),
                pcrc: prefix_crc(&self.log),
                from: self.cfg.self_addr.clone(),
            },
        }
    }

    fn peers(&self) -> Vec<String> {
        self.cfg
            .peers
            .iter()
            .filter(|p| **p != self.cfg.self_addr)
            .cloned()
            .collect()
    }
}
