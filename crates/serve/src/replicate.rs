//! Primary→follower WAL shipping, failover, and epoch fencing.
//!
//! A durable server ([`crate::ServerConfig::journal_dir`]) can replicate:
//! the **primary** streams its write-ahead journal records — the same
//! `[u32 len][u32 crc32][JSON]` records `journal.log` holds, framed for
//! transport with a monotonically increasing *epoch* and *sequence
//! number* — to any follower that dials in. A **follower** (started with
//! [`crate::ServerConfig::replica_of`]) connects to its primary, appends
//! each shipped record to its own journal, **CRC-verifies and fsyncs it
//! before acking**, keeps its dedup map and `SweepCache` snapshots warm
//! by replaying acked records, and answers read-only `recover`-style
//! status queries — while rejecting compute requests with
//! `RES-NOT-PRIMARY`.
//!
//! # Transport
//!
//! Replication rides the server's ordinary newline-delimited-JSON TCP
//! listener. A line whose top-level object carries a `"repl"` member is
//! a replication message ([`ReplMsg`]); everything else is a normal wire
//! request. The follower dials the primary and sends
//! `{"repl":"hello","epoch":E,"have":S}`; the primary answers with a
//! stream of `rec` messages from sequence `S+1` (sequence numbers are
//! 1-based journal record indices), interleaving `hb` heartbeats while
//! idle, and reads `ack` messages back on the same socket.
//!
//! Each `rec` carries the CRC32 of the record's canonical payload bytes
//! ([`crate::journal::payload_bytes`]). The follower re-encodes and
//! re-checksums before appending, so an acked follower journal is
//! **byte-identical** to the primary's — a checksum mismatch is
//! `IO-REPL-CORRUPT`: the record is refused and the link torn down to
//! resync from the acked prefix.
//!
//! # Epochs and fencing
//!
//! Every replicated deployment lives in an *epoch* (term), persisted in
//! a small atomically-replaced `epoch` file. All replication messages
//! carry the sender's epoch, and **lower epochs are always refused**:
//!
//! * a follower that observes records from a lower epoch than its own
//!   refuses them (`RES-STALE-EPOCH`) and treats the sender as deposed;
//! * a primary that receives a `hello` carrying a higher epoch knows it
//!   was deposed while away: it **fences itself** — every subsequent
//!   request, pings included, is answered `RES-STALE-EPOCH`;
//! * a server started with [`crate::ServerConfig::peers`] also polls
//!   peer status and self-fences the moment any peer reports a higher
//!   epoch — or a *primary at the same epoch* with a
//!   lexicographically smaller address (the equal-epoch tiebreak; it
//!   can only arise through operator error, because promotion epochs
//!   are collision-free, see below) — so a revived stale primary is
//!   fenced even before the new primary dials it.
//!
//! Fencing is **durable**: [`ReplState::fence`] persists the
//! superseding epoch together with a `fenced` marker, so a fenced
//! server that restarts (without `--replica-of`) comes back fenced
//! instead of re-opening for writes at its stale epoch. An epoch file
//! that exists but does not parse is a **startup error** — silently
//! resetting to epoch 1 could un-fence a deposed primary.
//!
//! # Failure detection and promotion
//!
//! The follower expects a record or heartbeat within
//! [`crate::ServerConfig::failover_grace`]; reconnects use the client's
//! jittered exponential backoff ([`crate::RetryPolicy::backoff`]). When
//! the grace expires, the follower arbitrates: it queries each peer's
//! `(role, epoch, seq)` (skipping any peer whose status nonce proves it
//! is this very server under an alias) and
//!
//! * **adopts** a peer that already promoted (follows it instead),
//! * **defers** to any live peer with more acked records (or, on a tie,
//!   the lexicographically smaller address) — so the *highest-acked*
//!   follower wins and a double promotion resolves deterministically;
//!   each deferral is logged, and a peer that is fenced or parked
//!   diverged (it reports role `diverged`) is never deferred to, since
//!   it will never promote,
//! * otherwise **promotes**: bumps the epoch past every epoch it has
//!   observed — to the next epoch *congruent to this node's slot* in
//!   the sorted cluster membership (`peers` ∪ self), so two nodes can
//!   never promote to the **same** epoch — persists it, replays
//!   admitted-but-unsettled journal records on the caches the warmer
//!   kept hot, and only then serves as primary. Retried `request_id`s settled before the failover are
//!   answered from the replicated journal byte-identically, with zero
//!   recompute.
//!
//! Arbitration is quorum-less: an unreachable peer never blocks
//! failover, which is what lets a two-node pair fail over at all. The
//! price is that during a *full partition* both sides of a pair may
//! serve an epoch each (never the same epoch). The duel resolves
//! deterministically the moment connectivity heals — the strictly
//! lower epoch fences — and writes accepted by the losing side are
//! never silently merged: its journal has diverged, which the resync
//! handshake detects (below) and refuses with `IO-REPL-CORRUPT`.
//!
//! # Divergence detection
//!
//! The resync protocol only works when the follower's journal is a
//! strict prefix of the primary's. That is not a matter of trust: the
//! `hello` carries a chained **prefix checksum** over the follower's
//! whole journal, and the primary verifies it against the same prefix
//! of its own log (and that `have` does not exceed its own sequence)
//! before streaming a single record. A mismatch — e.g. a deposed
//! primary with an unreplicated acked suffix restarted with
//! `--replica-of` the new primary — is refused with `IO-REPL-CORRUPT`;
//! the refused follower marks itself *diverged*, stops resyncing, and
//! will never promote. The operator wipes its journal directory and
//! re-seeds it from the live primary.
//!
//! # Core and shell
//!
//! Every decision above lives in one sans-IO state machine,
//! [`crate::repl_core::ReplCore`]: hello/rec/hb/err handling,
//! arbitration, promotion, the guard's fencing checks and the request
//! role gate. This module is its threaded *shell*: it owns the sockets,
//! the journal fsyncs, the epoch file, the [`Clock`] and the chaos hooks,
//! feeds the core events and carries out the effects it returns. The
//! deterministic simulator (`lintra-sim`) drives the very same core.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use lintra::engine::snapshot::crc32;
use lintra::matrix::rng::SplitMix64;
use lintra_bench::json::Json;
use lintra_bench::wire::{WireOp, WireRequest};

use crate::client::RetryPolicy;
use crate::clock::{Clock, SystemClock};
use crate::journal::{payload_bytes, JournalRecord, RecordKind};
use crate::repl_core::{CoreConfig, Effect, Event, ReplCore};
use crate::server::{lock_unpoisoned, persist_snapshots, replay_request, ServerConfig, Shared};
use crate::signal;
use crate::transport::{read_line, Conn, NetError, TcpTransport, Transport};

/// File name of the persisted epoch inside the epoch directory.
pub const EPOCH_FILE: &str = "epoch";

/// Connect/read budget for one-shot peer queries (status, fence hello).
const PEER_TIMEOUT: Duration = Duration::from_millis(250);

/// How often blocked replication reads re-check for shutdown.
const POLL: Duration = Duration::from_millis(20);

/// What a replicated server currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, streams its journal to followers.
    Primary,
    /// Replicates from a primary; answers pings and status queries,
    /// rejects compute with `RES-NOT-PRIMARY`.
    Follower,
    /// Mid-promotion: replaying unsettled records before taking writes.
    Promoting,
    /// Deposed: a higher epoch exists; every request is refused with
    /// `RES-STALE-EPOCH`.
    Fenced,
}

impl Role {
    /// Stable lowercase label (wire + logs).
    pub fn label(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Promoting => "promoting",
            Role::Fenced => "fenced",
        }
    }
}

/// Deterministic replication-fault knobs, for chaos tests only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplChaos {
    /// Primary side: tear the follower link down once, right after this
    /// many records were streamed on one connection
    /// (`Fault::ReplLinkDrop`). The follower must resync from its acked
    /// prefix on reconnect.
    pub drop_link_after: Option<u64>,
    /// Follower side: stall for the given duration before acking the
    /// record at the given sequence number (`Fault::LaggingFollower`).
    /// The primary must keep serving at full speed meanwhile.
    pub lag: Option<(u64, Duration)>,
}

/// Shared replication state of one server (present iff durable).
///
/// Lock order: the durability lock (`server::Durability`: journal and
/// admissions) is always taken *before* `core`, and never while `core`
/// is held — a record is journaled first, then published to the core.
pub struct ReplState {
    /// The replication state machine.
    pub(crate) core: Mutex<ReplCore>,
    /// Signalled when the core's log grows (wakes idle follower streams).
    pub(crate) log_grew: Condvar,
    /// Where the epoch is persisted.
    epoch_path: PathBuf,
    /// Chaos link drops already consumed (each fires once).
    chaos_drops_done: AtomicU64,
}

impl ReplState {
    /// Boots the replication core of a server listening on `self_addr`
    /// from its persisted epoch state and recovered journal records.
    /// Returns the boot effects (see [`ReplCore::new`]); the epoch-file
    /// rewrite among them is already carried out.
    pub(crate) fn new(
        config: &ServerConfig,
        epoch_path: PathBuf,
        state: EpochState,
        self_addr: String,
        records: Vec<JournalRecord>,
    ) -> (ReplState, Vec<Effect>) {
        // The nonce only has to distinguish *processes* talking through
        // address aliases. A process-wide counter makes it unique within
        // this process even under a frozen or coarse clock (two ReplStates
        // built in the same tick), the pid separates processes on one
        // host, and the monotonic clock reading separates hosts — no
        // `SystemTime` involved, so simulation runs stay deterministic.
        static NONCE_SEQ: AtomicU64 = AtomicU64::new(0);
        let now = config.clock.now();
        let mut hasher = DefaultHasher::new();
        std::process::id().hash(&mut hasher);
        epoch_path.hash(&mut hasher);
        NONCE_SEQ.fetch_add(1, Ordering::SeqCst).hash(&mut hasher);
        now.hash(&mut hasher);
        let cfg = CoreConfig {
            self_addr,
            peers: config.peers.clone(),
            grace: config.failover_grace,
            heartbeat: config.heartbeat,
            peer_timeout: PEER_TIMEOUT,
            // JSON numbers are f64: keep the nonce within 2^53 so it
            // round-trips the wire exactly. One SplitMix64 step disperses
            // the hash so counter-adjacent nonces are far apart.
            nonce: SplitMix64::new(hasher.finish()).next_u64() & ((1 << 53) - 1),
        };
        let (core, mut boot) = ReplCore::new(cfg, state, config.replica_of.clone(), records, now);
        let repl = ReplState {
            core: Mutex::new(core),
            log_grew: Condvar::new(),
            epoch_path,
            chaos_drops_done: AtomicU64::new(0),
        };
        boot.retain(|effect| match effect {
            Effect::Execute { .. } => true,
            other => {
                repl.apply_local(other.clone());
                false
            }
        });
        (repl, boot)
    }

    /// Locks the core.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ReplCore> {
        lock_unpoisoned(&self.core)
    }

    /// Hands a record that just became durable in the journal to the
    /// core and wakes idle follower streams. Called with the durability
    /// lock held, so the log mirrors the journal in order.
    pub(crate) fn publish(&self, rec: JournalRecord) {
        self.lock().publish(rec);
        self.log_grew.notify_all();
    }

    /// Carries out the effects every thread handles the same way.
    /// Persistence is best-effort: an unpersistable epoch costs a
    /// deferral after the next restart, never a split brain (the epoch
    /// is still carried on every wire message).
    fn apply_local(&self, effect: Effect) {
        match effect {
            Effect::PersistEpoch(state) => {
                let _ = store_epoch_state(&self.epoch_path, state);
            }
            Effect::Trace(line) => eprintln!("replication: {line}"),
            _ => {}
        }
    }
}

// --- epoch persistence ----------------------------------------------------

/// The persisted epoch file content: the term, plus whether this server
/// was fenced in it (`<epoch>\n` or `<epoch> fenced\n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochState {
    /// The epoch (term), at least 1.
    pub epoch: u64,
    /// True when this server was fenced: a restart must come back
    /// fenced, not primary.
    pub fenced: bool,
}

/// Loads the persisted epoch state. A missing file is a fresh
/// deployment (epoch 1, not fenced).
///
/// # Errors
///
/// An epoch file that exists but cannot be read **or parsed** is an
/// error, never a silent reset to epoch 1: a reset could revive a
/// fenced or deposed primary at a stale term and lose acked writes.
pub fn load_epoch_state(path: &Path) -> Result<EpochState, std::io::Error> {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == ErrorKind::NotFound => {
            return Ok(EpochState {
                epoch: 1,
                fenced: false,
            })
        }
        Err(e) => return Err(e),
    };
    let mut tokens = raw.split_whitespace();
    let epoch = tokens
        .next()
        .and_then(|t| t.parse::<u64>().ok())
        .filter(|&e| e >= 1);
    let fenced = match tokens.next() {
        None => Some(false),
        Some("fenced") => Some(true),
        Some(_) => None,
    };
    match (epoch, fenced, tokens.next()) {
        (Some(epoch), Some(fenced), None) => Ok(EpochState { epoch, fenced }),
        _ => Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!(
                "epoch file {} is unparseable ({raw:?}); refusing to guess — \
                 restore it or remove it to restart the deployment at epoch 1",
                path.display()
            ),
        )),
    }
}

/// Atomically persists the epoch state (write temp sibling, fsync,
/// rename).
///
/// # Errors
///
/// Propagates the underlying filesystem failure.
pub fn store_epoch_state(path: &Path, state: EpochState) -> Result<(), std::io::Error> {
    let tmp = path.with_extension("tmp");
    let marker = if state.fenced { " fenced" } else { "" };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(format!("{}{marker}\n", state.epoch).as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Atomically persists an un-fenced epoch.
///
/// # Errors
///
/// Propagates the underlying filesystem failure.
pub fn store_epoch(path: &Path, epoch: u64) -> Result<(), std::io::Error> {
    store_epoch_state(
        path,
        EpochState {
            epoch,
            fenced: false,
        },
    )
}
// --- wire messages --------------------------------------------------------

/// One replication message (a JSON line with a `"repl"` discriminator).
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Follower → primary: start streaming after `have`.
    Hello {
        /// Sender's epoch.
        epoch: u64,
        /// Records the follower already holds.
        have: u64,
        /// Chained prefix checksum ([`prefix_crc`]) over all `have`
        /// records, so the primary can prove the follower's journal is
        /// a strict prefix of its own before streaming (a mismatch is
        /// divergence: `IO-REPL-CORRUPT`, not resyncable).
        pcrc: u32,
        /// Follower's own listen address (ack bookkeeping).
        from: String,
    },
    /// Primary → follower: one journal record.
    Rec {
        /// Sender's epoch.
        epoch: u64,
        /// 1-based journal position of this record.
        seq: u64,
        /// CRC32 of the record's canonical payload bytes.
        crc: u32,
        /// Record kind.
        kind: RecordKind,
        /// Idempotency key.
        rid: String,
        /// Journaled wire line.
        line: String,
    },
    /// Primary → follower: liveness while idle.
    Hb {
        /// Sender's epoch.
        epoch: u64,
        /// Sender's current sequence number.
        seq: u64,
    },
    /// Follower → primary: records up to `seq` are fsync'd.
    Ack {
        /// Highest durable sequence.
        seq: u64,
    },
    /// Either direction: refusal with a diagnostic code
    /// (`RES-STALE-EPOCH`, `RES-NOT-PRIMARY`, `IO-REPL-CORRUPT`).
    Err {
        /// Diagnostic code.
        code: String,
        /// Sender's epoch.
        epoch: u64,
    },
    /// Read-only status query (any peer).
    Status,
    /// Answer to [`ReplMsg::Status`].
    StatusReply {
        /// Role label ([`Role::label`]).
        role: String,
        /// Current epoch.
        epoch: u64,
        /// Current sequence number.
        seq: u64,
        /// Settled keys servable to retries.
        answered: u64,
        /// The answering process's identity nonce: a querier whose own
        /// nonce matches is talking to itself through an address alias.
        nonce: u64,
        /// The primary a follower replicates from, if any.
        primary: Option<String>,
    },
}

fn num(doc: &Json, key: &str) -> Option<u64> {
    let v = doc.get(key).and_then(Json::as_num)?;
    (v.is_finite() && v >= 0.0 && v.fract() == 0.0).then_some(v as u64)
}

fn text(doc: &Json, key: &str) -> Option<String> {
    doc.get(key).and_then(Json::as_str).map(str::to_string)
}

impl ReplMsg {
    /// Parses a wire line as a replication message. `None` when the line
    /// is not a replication message at all (no `"repl"` member);
    /// `Some(Err)`-like malformed replication frames also return `None`
    /// — the caller treats them as protocol violations and drops the
    /// link.
    pub fn parse(line: &str) -> Option<ReplMsg> {
        let doc = Json::parse(line).ok()?;
        let tag = doc.get("repl").and_then(Json::as_str)?.to_string();
        match tag.as_str() {
            "hello" => Some(ReplMsg::Hello {
                epoch: num(&doc, "epoch")?,
                have: num(&doc, "have")?,
                pcrc: u32::try_from(num(&doc, "pcrc")?).ok()?,
                from: text(&doc, "from").unwrap_or_default(),
            }),
            "rec" => Some(ReplMsg::Rec {
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
                crc: u32::try_from(num(&doc, "crc")?).ok()?,
                kind: RecordKind::from_tag(&text(&doc, "t")?)?,
                rid: text(&doc, "rid")?,
                line: text(&doc, "line")?,
            }),
            "hb" => Some(ReplMsg::Hb {
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
            }),
            "ack" => Some(ReplMsg::Ack {
                seq: num(&doc, "seq")?,
            }),
            "err" => Some(ReplMsg::Err {
                code: text(&doc, "code")?,
                epoch: num(&doc, "epoch")?,
            }),
            "status" => Some(ReplMsg::Status),
            "status-reply" => Some(ReplMsg::StatusReply {
                role: text(&doc, "role")?,
                epoch: num(&doc, "epoch")?,
                seq: num(&doc, "seq")?,
                answered: num(&doc, "answered")?,
                nonce: num(&doc, "nonce")?,
                primary: text(&doc, "primary"),
            }),
            _ => None,
        }
    }

    /// Renders the message as one newline-terminated wire line.
    pub fn render_line(&self) -> String {
        let obj = match self {
            ReplMsg::Hello {
                epoch,
                have,
                pcrc,
                from,
            } => Json::obj([
                ("repl", Json::Str("hello".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("have", Json::Num(*have as f64)),
                ("pcrc", Json::Num(f64::from(*pcrc))),
                ("from", Json::Str(from.clone())),
            ]),
            ReplMsg::Rec {
                epoch,
                seq,
                crc,
                kind,
                rid,
                line,
            } => Json::obj([
                ("repl", Json::Str("rec".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("seq", Json::Num(*seq as f64)),
                ("crc", Json::Num(f64::from(*crc))),
                ("t", Json::Str(kind.tag().to_string())),
                ("rid", Json::Str(rid.clone())),
                ("line", Json::Str(line.clone())),
            ]),
            ReplMsg::Hb { epoch, seq } => Json::obj([
                ("repl", Json::Str("hb".to_string())),
                ("epoch", Json::Num(*epoch as f64)),
                ("seq", Json::Num(*seq as f64)),
            ]),
            ReplMsg::Ack { seq } => Json::obj([
                ("repl", Json::Str("ack".to_string())),
                ("seq", Json::Num(*seq as f64)),
            ]),
            ReplMsg::Err { code, epoch } => Json::obj([
                ("repl", Json::Str("err".to_string())),
                ("code", Json::Str(code.clone())),
                ("epoch", Json::Num(*epoch as f64)),
            ]),
            ReplMsg::Status => Json::obj([("repl", Json::Str("status".to_string()))]),
            ReplMsg::StatusReply {
                role,
                epoch,
                seq,
                answered,
                nonce,
                primary,
            } => {
                let mut members = vec![
                    ("repl", Json::Str("status-reply".to_string())),
                    ("role", Json::Str(role.clone())),
                    ("epoch", Json::Num(*epoch as f64)),
                    ("seq", Json::Num(*seq as f64)),
                    ("answered", Json::Num(*answered as f64)),
                    ("nonce", Json::Num(*nonce as f64)),
                ];
                if let Some(p) = primary {
                    members.push(("primary", Json::Str(p.clone())));
                }
                Json::obj(members)
            }
        };
        let mut line = obj.render_compact();
        line.push('\n');
        line
    }
}

/// A peer's answer to a status query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusView {
    /// Role label.
    pub role: String,
    /// Peer's epoch.
    pub epoch: u64,
    /// Peer's sequence number (acked records).
    pub seq: u64,
    /// Settled keys servable to retries.
    pub answered: u64,
    /// The answering process's identity nonce ([`ReplMsg::StatusReply`]).
    pub nonce: u64,
    /// The primary the peer replicates from, if it is a follower.
    pub primary: Option<String>,
}

/// Chained CRC32 over a run of journal records: each record's canonical
/// payload bytes ([`payload_bytes`]) are checksummed together with the
/// accumulator so far, so two journals share a prefix checksum iff they
/// share the prefix byte-for-byte. The empty prefix is 0.
pub fn prefix_crc(records: &[JournalRecord]) -> u32 {
    let mut acc: u32 = 0;
    for rec in records {
        let mut bytes = acc.to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload_bytes(rec.kind, &rec.rid, &rec.line));
        acc = crc32(&bytes);
    }
    acc
}

// --- socket plumbing ------------------------------------------------------

/// One-shot status query against any replicated server over real TCP.
/// `None` when the peer is unreachable, not replicated, or answers
/// garbage. Library-internal paths use [`query_status_via`] so the
/// transport and clock stay injectable.
pub fn query_status(addr: &str, timeout: Duration) -> Option<StatusView> {
    query_status_via(&TcpTransport, &SystemClock::new(), addr, timeout)
}

/// [`query_status`] over an explicit [`Transport`]/[`Clock`] pair.
pub fn query_status_via(
    transport: &dyn Transport,
    clock: &dyn Clock,
    addr: &str,
    timeout: Duration,
) -> Option<StatusView> {
    match ask(transport, clock, addr, &ReplMsg::Status, timeout)? {
        ReplMsg::StatusReply {
            role,
            epoch,
            seq,
            answered,
            nonce,
            primary,
        } => Some(StatusView {
            role,
            epoch,
            seq,
            answered,
            nonce,
            primary,
        }),
        _ => None,
    }
}

/// One-shot exchange: connect, send `msg`, read one reply line.
fn ask(
    transport: &dyn Transport,
    clock: &dyn Clock,
    addr: &str,
    msg: &ReplMsg,
    timeout: Duration,
) -> Option<ReplMsg> {
    let mut conn = transport.connect(addr, timeout).ok()?;
    conn.send(msg.render_line().as_bytes()).ok()?;
    let mut buf = Vec::new();
    let line = read_line(conn.as_mut(), &mut buf, timeout, POLL, clock).ok()??;
    ReplMsg::parse(&line)
}

// --- primary side: streaming ----------------------------------------------

/// Streams journal records to one follower; runs on the connection
/// thread that received the follower's `hello`. Returns when the core
/// closes the stream (refused hello, lost primacy), the link drops, the
/// server drains, or a chaos-configured link drop fires.
pub(crate) fn stream_to_follower(shared: &Arc<Shared>, mut conn: Box<dyn Conn>, hello: ReplMsg) {
    static LINKS: AtomicU64 = AtomicU64::new(0);
    let Some(repl) = &shared.repl else { return };
    let ReplMsg::Hello { from, .. } = &hello else {
        return;
    };
    let clock = shared.config.clock.as_ref();
    // One stream per connection: a follower that redials while its old
    // link is still winding down gets a cursor of its own.
    let link = format!("{from}#{}", LINKS.fetch_add(1, Ordering::SeqCst));
    let wait = shared.config.heartbeat.min(Duration::from_millis(100));
    let chaos_drop = shared
        .config
        .repl_chaos
        .as_ref()
        .and_then(|c| c.drop_link_after);
    let mut sent_on_conn: u64 = 0;
    let mut fx = repl.lock().step(
        Event::Msg {
            from: link.clone(),
            msg: hello,
        },
        clock.now(),
    );
    'stream: loop {
        for effect in fx {
            match effect {
                Effect::Send { msg, .. } => {
                    if matches!(msg, ReplMsg::Rec { .. }) {
                        if chaos_drop.is_some_and(|n| sent_on_conn >= n)
                            && repl
                                .chaos_drops_done
                                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                                .is_ok()
                        {
                            // Injected ReplLinkDrop: tear the link down once.
                            break 'stream;
                        }
                        sent_on_conn += 1;
                    }
                    if conn.send(msg.render_line().as_bytes()).is_err() {
                        break 'stream;
                    }
                }
                Effect::Close { .. } => break 'stream,
                other => repl.apply_local(other),
            }
        }
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        // Acks are observability only: the socket is read just to notice
        // a dead link.
        let mut chunk = [0u8; 1024];
        if let Err(NetError::Closed | NetError::Failed(_) | NetError::FrameTooLarge) =
            conn.recv(&mut chunk, Duration::from_millis(1))
        {
            break;
        }
        // Wait briefly for the log to grow so an idle stream doesn't spin.
        fx = {
            let mut core = repl.lock();
            if !core.has_pending(&link) {
                core = repl
                    .log_grew
                    .wait_timeout(core, wait)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            core.step(Event::Pump { link: link.clone() }, clock.now())
        };
    }
    repl.lock()
        .step(Event::LinkDown { peer: link }, clock.now());
}

// --- follower side --------------------------------------------------------

/// The follower/guard thread's connections: the stream from the primary,
/// and the jittered reconnect backoff between dials.
struct Dialer {
    link: Option<(String, Box<dyn Conn>)>,
    buf: Vec<u8>,
    attempt: u32,
    /// The next dial sleeps first (cleared once an arbitration decides).
    backoff: bool,
    rng: SplitMix64,
    policy: RetryPolicy,
}

impl Dialer {
    fn new(shared: &Shared, self_addr: &str) -> Dialer {
        let mut hasher = DefaultHasher::new();
        self_addr.hash(&mut hasher);
        let grace = shared.config.failover_grace;
        Dialer {
            link: None,
            buf: Vec::new(),
            attempt: 0,
            backoff: false,
            rng: SplitMix64::new(0xF0110E5 ^ hasher.finish()),
            policy: RetryPolicy {
                max_attempts: u32::MAX,
                base_backoff: Duration::from_millis(25),
                max_backoff: (grace / 4).max(Duration::from_millis(25)),
                retry_overload: false,
                seed: 0,
            },
        }
    }

    /// The next event for the core: a stream message, the end of the
    /// stream, or a tick when nothing arrived within one poll.
    fn next_event(&mut self, clock: &dyn Clock) -> Event {
        let Some((peer, conn)) = &mut self.link else {
            return Event::Tick;
        };
        let msg = match read_line(conn.as_mut(), &mut self.buf, POLL, POLL, clock) {
            Ok(Some(line)) => ReplMsg::parse(&line),
            Ok(None) => None,
            Err(_) => return Event::Tick, // poll timeout: re-check drain and grace
        };
        match msg {
            Some(msg @ (ReplMsg::Rec { .. } | ReplMsg::Hb { .. } | ReplMsg::Err { .. })) => {
                Event::Msg {
                    from: peer.clone(),
                    msg,
                }
            }
            // EOF, or anything else on a stream (a protocol violation).
            _ => self.hang_up().unwrap_or(Event::Tick),
        }
    }

    fn hang_up(&mut self) -> Option<Event> {
        self.link.take().map(|(peer, _)| Event::LinkDown { peer })
    }

    /// Delivers one message: on the stream when it is addressed there,
    /// else by dialing the primary (a follower's hello) or as a one-shot
    /// exchange (status queries, fencing hellos) whose reply is the event.
    fn send(
        &mut self,
        shared: &Shared,
        following: bool,
        to: String,
        msg: ReplMsg,
    ) -> Option<Event> {
        let clock = shared.config.clock.as_ref();
        if let Some((peer, conn)) = &mut self.link {
            if *peer == to {
                let lag = shared.config.repl_chaos.as_ref().and_then(|c| c.lag);
                if let (ReplMsg::Ack { seq }, Some((lag_seq, delay))) = (&msg, lag) {
                    if *seq == lag_seq {
                        // Injected LaggingFollower: stall before the ack.
                        clock.sleep(delay);
                    }
                }
                return match conn.send(msg.render_line().as_bytes()) {
                    Ok(()) => None,
                    Err(_) => self.hang_up(),
                };
            }
        }
        let transport = shared.config.transport.as_ref();
        match msg {
            ReplMsg::Hello { .. } if following => self.dial(transport, clock, to, &msg),
            ReplMsg::Hello { .. } | ReplMsg::Status => {
                let reply = ask(transport, clock, &to, &msg, PEER_TIMEOUT)?;
                Some(Event::Msg {
                    from: to,
                    msg: reply,
                })
            }
            _ => None,
        }
    }

    /// Opens the stream to the primary with our hello.
    fn dial(
        &mut self,
        transport: &dyn Transport,
        clock: &dyn Clock,
        to: String,
        hello: &ReplMsg,
    ) -> Option<Event> {
        if self.backoff {
            clock.sleep(self.policy.backoff(self.attempt.min(16), &mut self.rng));
            self.attempt = self.attempt.saturating_add(1);
        }
        self.backoff = true;
        let Ok(mut conn) = transport.connect(&to, Duration::from_millis(500)) else {
            return Some(Event::LinkDown { peer: to });
        };
        self.attempt = 0;
        if conn.send(hello.render_line().as_bytes()).is_err() {
            return Some(Event::LinkDown { peer: to });
        }
        self.buf.clear();
        self.link = Some((to.clone(), conn));
        Some(Event::LinkUp { peer: to })
    }
}

/// Carries out one batch of effects on the follower/guard thread,
/// feeding the events they produce (replies, link changes, fired
/// timers) back into the core until nothing is left to do.
fn drive(shared: &Arc<Shared>, repl: &ReplState, dialer: &mut Dialer, fx: Vec<Effect>) {
    let clock = shared.config.clock.as_ref();
    let mut queue = VecDeque::from(fx);
    while let Some(effect) = queue.pop_front() {
        let event = match effect {
            Effect::Send { to, msg } => {
                let following = repl.lock().role() == Role::Follower;
                dialer.send(shared, following, to, msg)
            }
            Effect::Close { peer } => {
                if dialer.link.as_ref().is_some_and(|(p, _)| *p == peer) {
                    dialer.link = None;
                }
                None
            }
            Effect::Append(rec) => {
                if apply_record(shared, repl, rec) {
                    None
                } else {
                    // Never ack what is not durable: drop the rest of the
                    // batch and the link; the resync retries.
                    queue.clear();
                    dialer.hang_up()
                }
            }
            // The window's queries already ran inline: fire at once, and
            // dial straight after the decision.
            Effect::Timer { timer, .. } => {
                dialer.backoff = false;
                Some(Event::Timer(timer))
            }
            Effect::Execute { rid, line } => {
                replay(shared, &rid, &line);
                None
            }
            other => {
                repl.apply_local(other);
                None
            }
        };
        if let Some(event) = event {
            queue.extend(repl.lock().step(event, clock.now()));
        }
    }
}

/// Re-executes one admitted-but-unsettled record (startup recovery or
/// promotion) unless a shutdown signal arrived; true when it ran.
pub(crate) fn replay(shared: &Arc<Shared>, rid: &str, line: &str) -> bool {
    if signal::shutdown_requested() {
        return false;
    }
    replay_request(shared, rid, line);
    shared.stats.replayed.fetch_add(1, Ordering::SeqCst);
    true
}

/// The follower thread: replicate, detect failure, arbitrate, promote.
/// After a successful promotion it morphs into the guard loop that keeps
/// the deposed primary fenced.
pub(crate) fn follower_loop(shared: Arc<Shared>) {
    let Some(repl) = shared.repl.clone() else {
        return;
    };
    let clock = shared.config.clock.as_ref();
    let self_addr = repl.lock().self_addr().to_string();
    let mut dialer = Dialer::new(&shared, &self_addr);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let (role, diverged) = {
            let core = repl.lock();
            (core.role(), core.diverged())
        };
        match role {
            Role::Primary => break, // promoted: fall through to the guard
            Role::Follower if !diverged => {}
            _ => return, // fenced, or parked diverged
        }
        let event = dialer.next_event(clock);
        let fx = repl.lock().step(event, clock.now());
        drive(&shared, &repl, &mut dialer, fx);
    }
    guard_loop(&shared);
}

/// Appends one verified record to the local journal (fsync'd), settles
/// it in the dedup ledger and publishes it to the core, then feeds sweep
/// admits to the cache warmer. Returns false on an unappendable journal.
fn apply_record(shared: &Arc<Shared>, repl: &ReplState, rec: JournalRecord) -> bool {
    let warm = (rec.kind == RecordKind::Admit)
        .then(|| WireRequest::parse(&rec.line).ok())
        .flatten()
        .and_then(|req| match req.op {
            WireOp::Sweep { design, max_i } => Some((design, max_i)),
            _ => None,
        });
    {
        let Some(dur) = &shared.durability else {
            return false;
        };
        let mut d = lock_unpoisoned(dur);
        if d.journal.append(rec.kind, &rec.rid, &rec.line).is_err() {
            return false;
        }
        d.admissions.apply(&rec);
        repl.publish(rec);
    }
    // Replay acked sweep admits into the local cache so this follower's
    // snapshots stay warm for a future promotion.
    if let (Some(job), Some(tx)) = (warm, &shared.warm_tx) {
        let _ = tx.send(job);
    }
    true
}

/// The cache warmer: replays acked sweep admits into the shared caches
/// off the replication path, checkpointing snapshots as designs warm.
pub(crate) fn warm_loop(shared: &Arc<Shared>, rx: &std::sync::mpsc::Receiver<(String, u32)>) {
    while !shared.draining.load(Ordering::SeqCst) {
        let (design, max_i) = match rx.recv_timeout(POLL * 5) {
            Ok(job) => job,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        };
        let Some(d) = lintra::suite::by_name(&design) else {
            continue;
        };
        for i in 0..=max_i {
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            let mut caches = lock_unpoisoned(&shared.caches);
            let cache = caches
                .entry(d.name.to_string())
                .or_insert_with(|| lintra::engine::SweepCache::new(&d.system));
            let _ = cache.unfolded(i);
        }
        persist_snapshots(shared);
    }
}

// --- promotion epochs ---------------------------------------------------

/// This node's collision-free epoch arithmetic: the cluster size
/// (sorted, deduplicated `peers` ∪ self) and this node's index in it.
/// Promotion epochs are chosen congruent to the index, so no two
/// cluster members — even fully partitioned from each other — can ever
/// promote to the *same* epoch; the strictly-higher-epoch fencing paths
/// then resolve any duel deterministically once connectivity heals.
pub fn epoch_stride_slot(peers: &[String], self_addr: &str) -> (u64, u64) {
    let mut cluster: Vec<&str> = peers
        .iter()
        .map(String::as_str)
        .chain([self_addr])
        .collect();
    cluster.sort_unstable();
    cluster.dedup();
    let slot = cluster
        .iter()
        .position(|a| *a == self_addr)
        .unwrap_or_default() as u64;
    (cluster.len() as u64, slot)
}

/// The epoch a node at `self_addr` promotes to after observing
/// `observed` as the highest epoch anywhere: the next epoch past
/// `observed` that lands on this node's slot in the cluster.
/// Collision-free by construction — even two followers partitioned from
/// each other promote to *different* epochs, and the lower one fences
/// once the partition heals.
pub fn promotion_epoch(observed: u64, peers: &[String], self_addr: &str) -> u64 {
    let (stride, slot) = epoch_stride_slot(peers, self_addr);
    let mut new_epoch = observed + 1;
    while new_epoch % stride != slot {
        new_epoch += 1;
    }
    new_epoch
}

/// The standing guard: keeps a deposed primary fenced and self-fences
/// the moment any peer reports a higher epoch (or wins the equal-epoch
/// tiebreak). Runs on any server with peers configured, and on every
/// promoted follower.
pub(crate) fn guard_loop(shared: &Arc<Shared>) {
    let Some(repl) = &shared.repl else { return };
    let clock = shared.config.clock.as_ref();
    let interval = shared.config.heartbeat.max(Duration::from_millis(100));
    let self_addr = repl.lock().self_addr().to_string();
    let mut dialer = Dialer::new(shared, &self_addr);
    while !shared.draining.load(Ordering::SeqCst) {
        let fx = repl.lock().step(Event::Tick, clock.now());
        drive(shared, repl, &mut dialer, fx);
        clock.sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_messages_round_trip_the_wire() {
        let msgs = [
            ReplMsg::Hello {
                epoch: 3,
                have: 17,
                pcrc: 0x1234_5678,
                from: "127.0.0.1:9000".to_string(),
            },
            ReplMsg::Rec {
                epoch: 2,
                seq: 5,
                crc: 0xDEAD_BEEF,
                kind: RecordKind::Admit,
                rid: "k1".to_string(),
                line: "{\"id\":\"a\",\"op\":\"ping\"}".to_string(),
            },
            ReplMsg::Hb { epoch: 2, seq: 9 },
            ReplMsg::Ack { seq: 5 },
            ReplMsg::Err {
                code: "RES-STALE-EPOCH".to_string(),
                epoch: 4,
            },
            ReplMsg::Status,
            ReplMsg::StatusReply {
                role: "follower".to_string(),
                epoch: 2,
                seq: 5,
                answered: 3,
                nonce: (1 << 53) - 1,
                primary: Some("127.0.0.1:9001".to_string()),
            },
        ];
        for msg in msgs {
            let line = msg.render_line();
            assert!(line.ends_with('\n'));
            let parsed = ReplMsg::parse(line.trim_end()).expect("parses");
            assert_eq!(parsed, msg);
        }
    }

    #[test]
    fn non_repl_lines_are_not_repl_messages() {
        assert_eq!(ReplMsg::parse("{\"id\":\"a\",\"op\":\"ping\"}"), None);
        assert_eq!(ReplMsg::parse("not json"), None);
        assert_eq!(ReplMsg::parse("{\"repl\":\"bogus\"}"), None);
        // Negative / fractional numbers are rejected, not truncated.
        assert_eq!(ReplMsg::parse("{\"repl\":\"ack\",\"seq\":-1}"), None);
        assert_eq!(ReplMsg::parse("{\"repl\":\"ack\",\"seq\":1.5}"), None);
    }

    #[test]
    fn epoch_file_round_trips_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("lintra-epoch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(EPOCH_FILE);
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            load_epoch_state(&path).expect("missing file is fine"),
            EpochState {
                epoch: 1,
                fenced: false
            },
            "missing file is a fresh deployment"
        );
        store_epoch(&path, 7).expect("store");
        assert_eq!(
            load_epoch_state(&path).expect("readable"),
            EpochState {
                epoch: 7,
                fenced: false
            }
        );
        store_epoch_state(
            &path,
            EpochState {
                epoch: 9,
                fenced: true,
            },
        )
        .expect("store fenced");
        assert_eq!(
            load_epoch_state(&path).expect("readable"),
            EpochState {
                epoch: 9,
                fenced: true
            },
            "the fenced marker survives a restart"
        );
        // An existing-but-unparseable file must be an error, never a
        // silent reset to epoch 1 (that could un-fence a deposed
        // primary).
        for garbage in ["garbage", "0", "-3", "7 fenced extra", "7 sideways"] {
            std::fs::write(&path, garbage).expect("write");
            assert!(
                load_epoch_state(&path).is_err(),
                "{garbage:?} must not parse"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_crc_distinguishes_divergent_prefixes() {
        let rec = |rid: &str, line: &str| JournalRecord {
            kind: RecordKind::Admit,
            rid: rid.to_string(),
            line: line.to_string(),
        };
        let a = [
            rec("k1", "{\"op\":\"ping\"}"),
            rec("k2", "{\"op\":\"ping\"}"),
        ];
        let b = [
            rec("k1", "{\"op\":\"ping\"}"),
            rec("k2", "{\"op\":\"pong\"}"),
        ];
        assert_eq!(prefix_crc(&[]), 0, "empty prefix is 0");
        let cloned = a.to_vec();
        assert_eq!(prefix_crc(&a), prefix_crc(&cloned));
        assert_eq!(
            prefix_crc(&a[..1]),
            prefix_crc(&b[..1]),
            "identical prefixes agree"
        );
        assert_ne!(prefix_crc(&a), prefix_crc(&b), "divergent tails disagree");
        assert_ne!(
            prefix_crc(&a[..1]),
            prefix_crc(&a),
            "a longer journal has a different checksum"
        );
    }

    #[test]
    fn promotion_epochs_are_collision_free_across_the_cluster() {
        let a = "127.0.0.1:9000".to_string();
        let b = "127.0.0.1:9001".to_string();
        let c = "127.0.0.1:9002".to_string();
        // Each member computes its slot from its own peer list (which
        // omits itself); the cluster view must still agree.
        let view = |self_addr: &str| {
            let peers: Vec<String> = [&a, &b, &c]
                .iter()
                .filter(|p| p.as_str() != self_addr)
                .map(|p| p.to_string())
                .collect();
            epoch_stride_slot(&peers, self_addr)
        };
        let next = |observed: u64, (stride, slot): (u64, u64)| {
            let mut e = observed + 1;
            while e % stride != slot {
                e += 1;
            }
            e
        };
        for observed in 1..20 {
            let picks = [
                next(observed, view(&a)),
                next(observed, view(&b)),
                next(observed, view(&c)),
            ];
            for i in 0..picks.len() {
                for j in i + 1..picks.len() {
                    assert_ne!(
                        picks[i], picks[j],
                        "two members promoted from epoch {observed} to the same epoch"
                    );
                }
            }
            for pick in picks {
                assert!(pick > observed, "promotion must advance the epoch");
            }
        }
        // No peers configured: the classic observed + 1.
        assert_eq!(next(1, epoch_stride_slot(&[], &a)), 2);
        // A self-alias in the peer list only widens the stride.
        let aliased = epoch_stride_slot(&[a.clone(), "0.0.0.0:9000".to_string()], &a);
        assert_eq!(aliased.0, 2);
    }

    #[test]
    fn role_labels_are_stable() {
        assert_eq!(Role::Primary.label(), "primary");
        assert_eq!(Role::Follower.label(), "follower");
        assert_eq!(Role::Promoting.label(), "promoting");
        assert_eq!(Role::Fenced.label(), "fenced");
    }
}
