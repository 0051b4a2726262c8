//! Table tests for the sans-IO replication core (`lintra_serve::ReplCore`):
//! one test per decision branch, plus three timing rules pinned on their
//! own — a lower-epoch stream message arbitrates at once, a heartbeat's
//! `seq` is liveness only, and a deferral waits out a full grace.

#![allow(clippy::expect_used)] // tests: a failed precondition should abort loudly

use std::time::Duration;

use lintra::engine::snapshot::crc32;
use lintra_serve::journal::{payload_bytes, JournalRecord};
use lintra_serve::replicate::{prefix_crc, promotion_epoch, EpochState, ReplMsg, Role};
use lintra_serve::{CoreConfig, Effect, Event, RecordKind, ReplCore, Timer};

const GRACE: Duration = Duration::from_millis(300);

fn ms(t: u64) -> Duration {
    Duration::from_millis(t)
}

fn config(addr: &str, peers: &[&str]) -> CoreConfig {
    CoreConfig {
        self_addr: addr.to_string(),
        peers: peers.iter().map(|p| p.to_string()).collect(),
        grace: GRACE,
        heartbeat: ms(100),
        peer_timeout: ms(250),
        nonce: 7,
    }
}

fn record(kind: RecordKind, rid: &str) -> JournalRecord {
    JournalRecord {
        kind,
        rid: rid.to_string(),
        line: format!("{{\"id\":\"{rid}\",\"op\":\"ping\"}}"),
    }
}

fn epoch(epoch: u64) -> EpochState {
    EpochState {
        epoch,
        fenced: false,
    }
}

/// Follower `f` of primary `p` at epoch 2, peers `p` and `e`.
fn follower(log: Vec<JournalRecord>) -> ReplCore {
    let cfg = config("f", &["p", "e"]);
    ReplCore::new(cfg, epoch(2), Some("p".to_string()), log, ms(0)).0
}

/// Standalone primary `p` at epoch 2, peers `a` and `z`.
fn primary(log: Vec<JournalRecord>) -> ReplCore {
    ReplCore::new(config("p", &["a", "z"]), epoch(2), None, log, ms(0)).0
}

fn rec_msg(epoch: u64, seq: u64, rec: &JournalRecord) -> ReplMsg {
    ReplMsg::Rec {
        epoch,
        seq,
        crc: crc32(&payload_bytes(rec.kind, &rec.rid, &rec.line)),
        kind: rec.kind,
        rid: rec.rid.clone(),
        line: rec.line.clone(),
    }
}

fn msg(core: &mut ReplCore, from: &str, msg: ReplMsg, now: u64) -> Vec<Effect> {
    core.step(
        Event::Msg {
            from: from.to_string(),
            msg,
        },
        ms(now),
    )
}

fn status(role: &str, epoch: u64, seq: u64) -> ReplMsg {
    ReplMsg::StatusReply {
        role: role.to_string(),
        epoch,
        seq,
        answered: 0,
        nonce: 99,
        primary: None,
    }
}

fn sent(fx: &[Effect]) -> Vec<(&str, &ReplMsg)> {
    fx.iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((to.as_str(), msg)),
            _ => None,
        })
        .collect()
}

fn err_code(fx: &[Effect]) -> Option<&str> {
    sent(fx).into_iter().find_map(|(_, m)| match m {
        ReplMsg::Err { code, .. } => Some(code.as_str()),
        _ => None,
    })
}

fn arbitrating(fx: &[Effect]) -> bool {
    fx.iter().any(|e| {
        matches!(
            e,
            Effect::Timer {
                timer: Timer::Decide { .. },
                ..
            }
        )
    })
}

/// Drives `core` into an arbitration round at `now` and feeds it the
/// given status replies; returns the effects of the decision.
fn arbitrate(core: &mut ReplCore, now: u64, replies: &[(&str, ReplMsg)]) -> Vec<Effect> {
    let fx = core.step(Event::Tick, ms(now));
    let round = fx
        .iter()
        .find_map(|e| match e {
            Effect::Timer {
                timer: Timer::Decide { round },
                ..
            } => Some(*round),
            _ => None,
        })
        .expect("the grace expired: an arbitration round opens");
    for (from, reply) in replies {
        assert!(msg(core, from, reply.clone(), now).is_empty());
    }
    core.step(Event::Timer(Timer::Decide { round }), ms(now + 250))
}

// --- primary side ------------------------------------------------------------

#[test]
fn a_higher_epoch_hello_fences_the_receiver() {
    let mut p = primary(vec![record(RecordKind::Admit, "k1")]);
    let hello = ReplMsg::Hello {
        epoch: 3,
        have: 0,
        pcrc: 0,
        from: "f".to_string(),
    };
    let fx = msg(&mut p, "f#1", hello, 10);
    assert_eq!(p.role(), Role::Fenced);
    assert_eq!(p.fenced_by(), 3);
    assert!(fx.contains(&Effect::PersistEpoch(EpochState {
        epoch: 3,
        fenced: true
    })));
    assert_eq!(err_code(&fx), Some("RES-STALE-EPOCH"));
    assert!(fx.contains(&Effect::Close {
        peer: "f#1".to_string()
    }));
    assert!(
        p.stream_links().is_empty(),
        "no stream to a superseding peer"
    );
    // Fenced means every request, pings included, is refused.
    assert_eq!(p.gate(false).map_err(|e| e.0), Err("RES-STALE-EPOCH"));
}

#[test]
fn a_hello_whose_prefix_is_not_ours_is_refused_as_corrupt() {
    let log = vec![
        record(RecordKind::Admit, "k1"),
        record(RecordKind::Done, "k1"),
    ];
    let mut p = primary(log.clone());
    let hello = |have, pcrc| ReplMsg::Hello {
        epoch: 2,
        have,
        pcrc,
        from: "f".to_string(),
    };
    // A checksum that disagrees, and a follower ahead of us: divergence.
    for (have, pcrc) in [(1, prefix_crc(&log[..1]) ^ 1), (3, 0)] {
        let fx = msg(&mut p, "f#1", hello(have, pcrc), 10);
        assert_eq!(err_code(&fx), Some("IO-REPL-CORRUPT"), "have {have}");
        assert!(p.stream_links().is_empty());
    }
    // A true prefix streams the rest at once.
    let fx = msg(&mut p, "f#2", hello(1, prefix_crc(&log[..1])), 10);
    assert_eq!(sent(&fx), vec![("f#2", &rec_msg(2, 2, &log[1]))]);
    assert_eq!(p.stream_links(), vec!["f#2".to_string()]);
}

#[test]
fn an_idle_stream_heartbeats_after_the_interval_and_ships_growth() {
    let mut p = primary(Vec::new());
    let hello = ReplMsg::Hello {
        epoch: 2,
        have: 0,
        pcrc: 0,
        from: "f".to_string(),
    };
    assert!(msg(&mut p, "f#1", hello, 0).is_empty());
    let pump = |p: &mut ReplCore, now| p.step(Event::Pump { link: "f#1".into() }, ms(now));
    assert!(pump(&mut p, 50).is_empty(), "not idle long enough");
    let hb = ReplMsg::Hb { epoch: 2, seq: 0 };
    assert_eq!(sent(&pump(&mut p, 100)), vec![("f#1", &hb)]);
    let rec = record(RecordKind::Admit, "k1");
    p.publish(rec.clone());
    assert!(p.has_pending("f#1"));
    assert_eq!(
        sent(&pump(&mut p, 120)),
        vec![("f#1", &rec_msg(2, 1, &rec))]
    );
    // A lost link forgets the stream.
    p.step(Event::LinkDown { peer: "f#1".into() }, ms(130));
    assert!(p.stream_links().is_empty());
}

#[test]
fn the_guard_breaks_equal_epoch_ties_by_address_and_skips_its_alias() {
    let mut p = primary(Vec::new());
    let fx = p.step(Event::Tick, ms(0));
    assert_eq!(
        sent(&fx),
        vec![("a", &ReplMsg::Status), ("z", &ReplMsg::Status)]
    );
    // A same-epoch primary at a larger address loses the tie to us.
    assert!(msg(&mut p, "z", status("primary", 2, 0), 1).is_empty());
    assert_eq!(p.role(), Role::Primary);
    // Our own reflection through an alias is never a rival.
    let mirror = ReplMsg::StatusReply {
        role: "primary".to_string(),
        epoch: 9,
        seq: 0,
        answered: 0,
        nonce: 7,
        primary: None,
    };
    assert!(msg(&mut p, "a", mirror, 2).is_empty());
    assert_eq!(p.role(), Role::Primary);
    // A same-epoch primary at a smaller address wins it.
    let fx = msg(&mut p, "a", status("primary", 2, 0), 3);
    assert_eq!(p.role(), Role::Fenced);
    assert!(fx
        .iter()
        .any(|e| matches!(e, Effect::Trace(t) if t.contains("fencing ourselves"))));
}

#[test]
fn the_guard_fences_on_a_higher_epoch_anywhere() {
    let mut p = primary(Vec::new());
    msg(&mut p, "z", status("follower", 3, 0), 1);
    assert_eq!(p.role(), Role::Fenced);
    assert_eq!(p.fenced_by(), 3);
}

// --- follower side -----------------------------------------------------------

#[test]
fn an_overlapping_record_is_re_acked_not_appended() {
    let log = vec![
        record(RecordKind::Admit, "k1"),
        record(RecordKind::Done, "k1"),
    ];
    let mut f = follower(log.clone());
    let fx = msg(&mut f, "p", rec_msg(2, 1, &log[0]), 10);
    assert_eq!(
        fx,
        vec![Effect::Send {
            to: "p".to_string(),
            msg: ReplMsg::Ack { seq: 2 }
        }]
    );
}

#[test]
fn a_fresh_record_is_appended_before_it_is_acked() {
    let mut f = follower(Vec::new());
    let rec = record(RecordKind::Admit, "k1");
    let fx = msg(&mut f, "p", rec_msg(2, 1, &rec), 10);
    assert_eq!(
        fx,
        vec![
            Effect::Append(rec),
            Effect::Send {
                to: "p".to_string(),
                msg: ReplMsg::Ack { seq: 1 }
            },
        ]
    );
    assert_eq!(f.seq(), 0, "the log grows only once the shell publishes it");
}

#[test]
fn a_gap_drops_the_link_and_redials_from_the_acked_prefix() {
    let mut f = follower(vec![record(RecordKind::Admit, "k1")]);
    let fx = msg(
        &mut f,
        "p",
        rec_msg(2, 3, &record(RecordKind::Admit, "k3")),
        10,
    );
    assert_eq!(
        fx,
        vec![Effect::Close {
            peer: "p".to_string()
        }]
    );
    let fx = f.step(Event::Tick, ms(20));
    assert!(matches!(
        sent(&fx)[..],
        [("p", ReplMsg::Hello { have: 1, .. })]
    ));
}

#[test]
fn a_record_failing_its_checksum_is_refused_and_counted() {
    let mut f = follower(Vec::new());
    let mut poisoned = rec_msg(2, 1, &record(RecordKind::Admit, "k1"));
    if let ReplMsg::Rec { crc, .. } = &mut poisoned {
        *crc ^= 0xFFFF;
    }
    let fx = msg(&mut f, "p", poisoned, 10);
    assert_eq!(err_code(&fx), Some("IO-REPL-CORRUPT"));
    assert!(!fx.iter().any(|e| matches!(e, Effect::Append(_))));
    assert!(fx.contains(&Effect::Close {
        peer: "p".to_string()
    }));
    assert_eq!(f.corrupt_refused(), 1);
}

#[test]
fn a_corrupt_refusal_of_our_hello_parks_us_diverged() {
    let mut f = follower(Vec::new());
    let refusal = ReplMsg::Err {
        code: "IO-REPL-CORRUPT".to_string(),
        epoch: 2,
    };
    let fx = msg(&mut f, "p", refusal, 10);
    assert!(f.diverged());
    assert!(fx
        .iter()
        .any(|e| matches!(e, Effect::Trace(t) if t.contains("diverged"))));
    // Parked: no redial, and no arbitration even past the grace.
    assert!(f.step(Event::Tick, ms(10_000)).is_empty());
    assert!(matches!(f.status_reply(0), ReplMsg::StatusReply { role, .. } if role == "diverged"));
}

// --- arbitration -------------------------------------------------------------

#[test]
fn arbitration_adopts_a_peer_that_already_promoted() {
    let mut f = follower(Vec::new());
    let fx = arbitrate(&mut f, 400, &[("e", status("primary", 3, 0))]);
    assert_eq!(f.role(), Role::Follower);
    assert_eq!(f.primary(), Some("e"));
    assert!(fx.iter().all(|e| matches!(e, Effect::Trace(_))));
    // The next tick dials the adopted primary.
    assert!(matches!(
        sent(&f.step(Event::Tick, ms(700)))[..],
        [("e", ReplMsg::Hello { .. })]
    ));
}

#[test]
fn arbitration_defers_to_a_better_acked_peer_or_a_smaller_tied_address() {
    for (seq, why) in [(1, "more acked records"), (0, "tie, smaller address")] {
        let mut f = follower(Vec::new());
        let fx = arbitrate(&mut f, 400, &[("e", status("follower", 2, seq))]);
        assert_eq!(f.role(), Role::Follower, "{why}");
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::Trace(t) if t.contains("deferring"))));
        assert_eq!(f.epoch(), 2, "{why}: no promotion");
    }
}

#[test]
fn arbitration_promotes_past_fenced_and_diverged_peers_and_replays_unsettled_work() {
    for peer_role in ["fenced", "diverged"] {
        let log = vec![
            record(RecordKind::Admit, "k1"),
            record(RecordKind::Admit, "k2"),
            record(RecordKind::Done, "k2"),
        ];
        let mut f = follower(log);
        let fx = arbitrate(&mut f, 400, &[("e", status(peer_role, 2, 9))]);
        let want = promotion_epoch(2, &["p".to_string(), "e".to_string()], "f");
        assert_eq!(f.role(), Role::Promoting, "{peer_role}");
        assert_eq!(f.epoch(), want);
        assert!(fx.contains(&Effect::PersistEpoch(epoch(want))));
        let replays: Vec<&Effect> = fx
            .iter()
            .filter(|e| matches!(e, Effect::Execute { .. }))
            .collect();
        assert!(matches!(replays[..], [Effect::Execute { rid, .. }] if rid == "k1"));
        assert_eq!(
            fx.last(),
            Some(&Effect::Timer {
                after: Duration::ZERO,
                timer: Timer::Promoted
            })
        );
        assert!(f.gate(true).is_err(), "no writes until the replays ran");
        f.step(Event::Timer(Timer::Promoted), ms(700));
        assert_eq!(f.role(), Role::Primary);
        assert_eq!(f.promoted_replayed(), 1);
        // The guard now keeps the deposed primary fenced.
        assert!(sent(&f.step(Event::Tick, ms(800)))
            .iter()
            .any(|(to, m)| *to == "p" && matches!(m, ReplMsg::Hello { .. })));
    }
}

// --- timing rules ------------------------------------------------------------

/// A lower-epoch `hb` or `rec` proves the followed primary is
/// deposed, so the follower arbitrates at once, not after the grace.
#[test]
fn a_lower_epoch_stream_message_triggers_arbitration_at_once() {
    let rec = record(RecordKind::Admit, "k1");
    for stale in [ReplMsg::Hb { epoch: 1, seq: 0 }, rec_msg(1, 1, &rec)] {
        let mut f = follower(Vec::new());
        let is_rec = matches!(stale, ReplMsg::Rec { .. });
        let fx = msg(&mut f, "p", stale, 10);
        assert!(arbitrating(&fx), "arbitration starts well inside the grace");
        assert_eq!(is_rec, err_code(&fx) == Some("RES-STALE-EPOCH"));
        assert!(!fx.iter().any(|e| matches!(e, Effect::Append(_))));
    }
}

/// A heartbeat whose `seq` runs ahead of the local log is
/// liveness only; the missing records surface as a gap on the next rec.
#[test]
fn a_heartbeat_ahead_of_the_log_is_liveness_only() {
    let mut f = follower(Vec::new());
    assert!(msg(&mut f, "p", ReplMsg::Hb { epoch: 2, seq: 5 }, 200).is_empty());
    // It counted as contact: no redial and no arbitration yet at 400 ms.
    assert!(f.step(Event::Tick, ms(400)).is_empty());
}

/// After a deferral the follower waits out a full grace
/// period before it arbitrates again.
#[test]
fn a_deferral_waits_a_full_grace_before_the_next_round() {
    let mut f = follower(Vec::new());
    arbitrate(&mut f, 400, &[("e", status("follower", 2, 1))]);
    let decided_at = 650;
    let fx = f.step(Event::Tick, ms(decided_at + 100));
    assert!(!arbitrating(&fx), "too soon after the deferral");
    let fx = f.step(Event::Tick, ms(decided_at + GRACE.as_millis() as u64 + 1));
    assert!(arbitrating(&fx));
}

// --- boot and the role gate --------------------------------------------------

#[test]
fn boot_follows_restart_semantics() {
    let log = vec![record(RecordKind::Admit, "k1")];
    let fenced = EpochState {
        epoch: 4,
        fenced: true,
    };
    // A fenced standalone server stays fenced and replays nothing.
    let (core, fx) = ReplCore::new(config("p", &[]), fenced, None, log.clone(), ms(0));
    assert_eq!((core.role(), core.fenced_by()), (Role::Fenced, 4));
    assert!(fx.is_empty());
    // An explicit rejoin clears the persisted fence.
    let (core, fx) = ReplCore::new(
        config("p", &[]),
        fenced,
        Some("q".into()),
        log.clone(),
        ms(0),
    );
    assert_eq!(core.role(), Role::Follower);
    assert_eq!(fx, vec![Effect::PersistEpoch(epoch(4))]);
    // An unfenced standalone server is primary and replays first.
    let (core, fx) = ReplCore::new(config("p", &[]), epoch(4), None, log, ms(0));
    assert_eq!(core.role(), Role::Primary);
    assert!(matches!(&fx[..], [Effect::Execute { rid, .. }] if rid == "k1"));
}

#[test]
fn the_role_gate_sends_compute_to_the_primary_but_answers_pings() {
    let f = follower(Vec::new());
    assert!(f.gate(false).is_ok(), "followers answer pings");
    let (code, message) = f.gate(true).expect_err("followers refuse compute");
    assert_eq!(code, "RES-NOT-PRIMARY");
    assert!(message.contains("the primary is p"), "{message}");
    assert!(primary(Vec::new()).gate(true).is_ok());
}
