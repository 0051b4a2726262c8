//! Load generation: an open loop timed from each request's due time, a
//! closed loop of waiting clients, and the rate ladder's stop rule.
//!
//! Every worker thread is also the only connection it drives, one
//! request at a time, and the worker count is capped at the machine's
//! core count: threads and connections in flight never exceed `nproc`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::stats::{highest_reportable, median, Pct};

/// Latency limit of the serve-light SLO, on its tail percentile.
pub const SLO_MS: f64 = 100.0;

/// Generator lateness "grows" when the last quarter of a step runs this
/// much later (median) than the first quarter.
pub const LATE_GROWTH_MS: f64 = 10.0;

/// Cores available to this process.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed request. All instants are offsets from the loop's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position in the request sequence.
    pub index: usize,
    /// When the request was due to be sent.
    pub due: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
    /// Whether it succeeded.
    pub ok: bool,
}

impl Sample {
    /// Latency from the due time, so a stall also counts against the
    /// requests queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e3
    }

    /// How late the generator sent it.
    pub fn late_ms(&self) -> f64 {
        (self.sent.saturating_sub(self.due)).as_secs_f64() * 1e3
    }
}

/// What a loop run returns: the samples in sequence order, the workers
/// it used, and the most requests it ever had in flight at once.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Samples sorted by [`Sample::index`].
    pub samples: Vec<Sample>,
    /// Worker threads (= connections) used.
    pub workers: usize,
    /// Peak concurrent requests observed.
    pub peak_in_flight: usize,
    /// Wall time from start to the last answer.
    pub wall: Duration,
}

struct InFlight {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl InFlight {
    fn enter(&self) {
        let n = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(n, Ordering::SeqCst);
    }

    fn leave(&self) {
        self.now.fetch_sub(1, Ordering::SeqCst);
    }
}

fn collect(
    workers: usize,
    start: Instant,
    gauge: &InFlight,
    per_worker: Vec<Vec<Sample>>,
) -> LoopRun {
    let wall = start.elapsed();
    let mut samples: Vec<Sample> = per_worker.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    LoopRun {
        samples,
        workers,
        peak_in_flight: gauge.peak.load(Ordering::SeqCst),
        wall,
    }
}

/// Due times of `n` requests at `rate` per second: request `k` falls due
/// at `k / rate` seconds. An even grid keeps the generator's own
/// queueing, and so the tail it adds, as low as the offered rate allows.
/// It does not lock onto the servers' 20 ms accept polling: at 40 rps
/// consecutive requests land 5 ms further into the poll period, so four
/// in a row cover it evenly, and at 80 rps eight do.
pub fn schedule(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|k| Duration::from_secs_f64(k as f64 / rate))
        .collect()
}

/// Open loop: request `k` falls due at `dues[k]` (offsets from the start)
/// and goes out through at most `workers` (capped at [`nproc`])
/// connections. A request that falls due while every worker is busy
/// waits, and is timed from its due time. `send(k)` performs request `k`
/// and reports success.
pub fn open_loop<F>(dues: &[Duration], workers: usize, send: F) -> LoopRun
where
    F: Fn(usize) -> bool + Sync,
{
    let n = dues.len();
    let workers = workers.clamp(1, nproc());
    let next = AtomicUsize::new(0);
    let gauge = InFlight {
        now: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let per_worker = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= n {
                            break;
                        }
                        let due = dues[k];
                        let now = start.elapsed();
                        if now < due {
                            thread::sleep(due - now);
                        }
                        gauge.enter();
                        let sent = start.elapsed();
                        let ok = send(k);
                        let done = start.elapsed();
                        gauge.leave();
                        out.push(Sample {
                            index: k,
                            due,
                            sent,
                            done,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    collect(workers, start, &gauge, per_worker)
}

/// Closed loop: `clients` workers (capped at [`nproc`]) each send their
/// next request as soon as the previous answer arrives, taking requests
/// in sequence order, until `window` has passed. A request is due when
/// its client became free, so lateness is the generator's own overhead.
pub fn closed_loop<F>(clients: usize, window: Duration, send: F) -> LoopRun
where
    F: Fn(usize) -> bool + Sync,
{
    let workers = clients.clamp(1, nproc());
    let next = AtomicUsize::new(0);
    let gauge = InFlight {
        now: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let start = Instant::now();
    let per_worker = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut due = start.elapsed();
                    while due < window {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        gauge.enter();
                        let sent = start.elapsed();
                        let ok = send(k);
                        let done = start.elapsed();
                        gauge.leave();
                        out.push(Sample {
                            index: k,
                            due,
                            sent,
                            done,
                            ok,
                        });
                        due = done;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    collect(workers, start, &gauge, per_worker)
}

/// Whether the generator fell further and further behind during a step:
/// the median lateness of its last quarter exceeds that of its first
/// quarter by more than [`LATE_GROWTH_MS`].
pub fn lateness_grows(samples: &[Sample]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let first: Vec<f64> = samples[..q].iter().map(Sample::late_ms).collect();
    let last: Vec<f64> = samples[samples.len() - q..]
        .iter()
        .map(Sample::late_ms)
        .collect();
    median(&last) > median(&first) + LATE_GROWTH_MS
}

/// The verdict on one rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: u32,
    /// Requests that failed, were refused or shed.
    pub failed: usize,
    /// The step's tail: p99 when at least ten samples lie beyond it,
    /// else the highest percentile that has that many.
    pub tail_level: usize,
    /// The tail's value and counts.
    pub tail: Pct,
    /// Whether generator lateness kept growing.
    pub late_grows: bool,
}

impl Step {
    /// Summarizes a finished step.
    pub fn from_run(rate: u32, run: &LoopRun) -> Step {
        let lat: Vec<f64> = run.samples.iter().map(Sample::latency_ms).collect();
        let (tail_level, tail) = highest_reportable(&lat).unwrap_or((
            500,
            Pct {
                value: f64::INFINITY,
                n: 0,
                beyond: 0,
            },
        ));
        Step {
            rate,
            failed: run.samples.iter().filter(|s| !s.ok).count(),
            tail_level,
            tail,
            late_grows: lateness_grows(&run.samples),
        }
    }

    /// The service sustained the step: nothing failed and the generator
    /// kept up (its lateness did not keep growing).
    pub fn sustained(&self) -> bool {
        self.failed == 0 && !self.late_grows
    }

    /// A step meets the SLO when it was sustained and its tail is within
    /// [`SLO_MS`].
    pub fn passes(&self) -> bool {
        self.sustained() && self.tail.value <= SLO_MS
    }
}

/// The ladder's offered rates: `first`, doubling, at most `max_steps`.
pub fn ladder_rates(first: u32, max_steps: usize) -> Vec<u32> {
    (0..max_steps).map(|k| first << k).collect()
}

/// Whether the ladder climbs on after `steps`: it stops after the first
/// step the service did not sustain. A step that only misses the tail
/// limit does not stop it, so one noisy tail cannot hide the rates above.
pub fn ladder_continues(steps: &[Step]) -> bool {
    steps.last().is_none_or(Step::sustained)
}

/// The highest rate before the first step that fails `ok` (0 when the
/// first step already fails it).
fn highest_rate(steps: &[Step], ok: fn(&Step) -> bool) -> u32 {
    steps
        .iter()
        .take_while(|s| ok(s))
        .map(|s| s.rate)
        .last()
        .unwrap_or(0)
}

/// The highest rate that met the SLO before the first miss.
pub fn slo_rate(steps: &[Step]) -> u32 {
    highest_rate(steps, Step::passes)
}

/// The highest rate the service sustained before the first step it did
/// not: no failures, lateness steady, whatever the tail.
pub fn sustained_rate(steps: &[Step]) -> u32 {
    highest_rate(steps, Step::sustained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Mutex;

    /// A line-echo listener that answers at once, except that it stalls
    /// for `stall` before answering its `stall_at`-th line.
    fn stub_listener(
        stall_at: usize,
        stall: Duration,
        lines: usize,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let mut served = 0;
            for stream in listener.incoming() {
                let stream = stream.expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                let mut line = String::new();
                while reader.read_line(&mut line).expect("read") > 0 {
                    if served == stall_at {
                        thread::sleep(stall);
                    }
                    served += 1;
                    writer.write_all(line.as_bytes()).expect("write");
                    line.clear();
                }
                if served >= lines {
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_pushes_up_the_latency_of_requests_queued_behind_it() {
        // 100 rps through one connection; request 5 stalls 300 ms, so
        // the ~30 requests due during the stall queue behind it.
        let n = 60;
        let (addr, stub) = stub_listener(5, Duration::from_millis(300), n);
        let stream = Mutex::new(TcpStream::connect(&addr).expect("connect"));
        let dues: Vec<Duration> = (0..n)
            .map(|k| Duration::from_millis(10 * k as u64))
            .collect();
        let run = open_loop(&dues, 1, |k| {
            let mut s = stream.lock().expect("stream lock");
            s.write_all(format!("{k}\n").as_bytes()).expect("send");
            let mut reader = BufReader::new(&*s);
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            line.trim() == k.to_string()
        });
        drop(stream);
        stub.join().expect("stub");
        assert!(run.samples.iter().all(|s| s.ok));
        let behind = &run.samples[6];
        assert!(
            behind.latency_ms() > 200.0,
            "request 6 was due 10 ms after the stall began; from its due time it waited \
             most of the stall, got {:.1} ms",
            behind.latency_ms()
        );
        let from_send = (behind.done - behind.sent).as_secs_f64() * 1e3;
        assert!(
            from_send < 100.0,
            "timed from its send it would hide the stall ({from_send:.1} ms)"
        );
        let hit = run
            .samples
            .iter()
            .filter(|s| s.latency_ms() > 100.0)
            .count();
        assert!(hit >= 15, "{hit} requests carry the stall");
    }

    #[test]
    fn the_ladder_stops_after_the_first_step_it_cannot_sustain() {
        let step = |rate, failed, tail, late_grows| Step {
            rate,
            failed,
            tail_level: 990,
            tail: Pct {
                value: tail,
                n: 1000,
                beyond: 10,
            },
            late_grows,
        };
        assert_eq!(ladder_rates(40, 4), vec![40, 80, 160, 320]);
        assert!(ladder_continues(&[]));
        let ok = step(40, 0, 50.0, false);
        assert!(ladder_continues(&[ok]));
        for unsustained in [step(80, 1, 50.0, false), step(80, 0, 50.0, true)] {
            assert!(!unsustained.passes() && !unsustained.sustained());
            assert!(!ladder_continues(&[ok, unsustained]));
            assert_eq!(slo_rate(&[ok, unsustained]), 40);
            assert_eq!(sustained_rate(&[ok, unsustained]), 40);
        }
        // A tail over the limit misses the SLO but the ladder climbs on.
        let slow_tail = step(80, 0, 101.0, false);
        assert!(!slow_tail.passes() && slow_tail.sustained());
        assert!(ladder_continues(&[ok, slow_tail]));
        let steps = [
            ok,
            slow_tail,
            step(160, 0, 60.0, false),
            step(320, 0, 60.0, true),
        ];
        assert_eq!(slo_rate(&steps), 40, "the SLO rate stops at the first miss");
        assert_eq!(sustained_rate(&steps), 160);
        assert_eq!(slo_rate(&[step(40, 0, 150.0, false)]), 0);
        assert_eq!(slo_rate(&[ok, step(80, 0, 60.0, false)]), 80);
    }

    #[test]
    fn growing_lateness_is_detected() {
        let mk = |late: &dyn Fn(usize) -> u64| -> Vec<Sample> {
            (0..40)
                .map(|k| Sample {
                    index: k,
                    due: Duration::from_millis(k as u64 * 10),
                    sent: Duration::from_millis(k as u64 * 10 + late(k)),
                    done: Duration::from_millis(k as u64 * 10 + late(k) + 5),
                    ok: true,
                })
                .collect()
        };
        assert!(!lateness_grows(&mk(&|k| (k % 3) as u64)));
        assert!(lateness_grows(&mk(&|k| k as u64 * 2)));
    }

    #[test]
    fn threads_and_connections_never_exceed_nproc() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let send = |_k: usize| {
            let n = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(n, Ordering::SeqCst);
            thread::sleep(Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            true
        };
        let run = open_loop(&schedule(64, 10_000.0), 64, send);
        assert!(run.workers <= nproc());
        assert!(run.peak_in_flight <= nproc());
        assert!(peak.load(Ordering::SeqCst) <= nproc());
        assert_eq!(run.samples.len(), 64);

        peak.store(0, Ordering::SeqCst);
        let run = closed_loop(64, Duration::from_millis(50), send);
        assert!(run.workers <= nproc());
        assert!(run.peak_in_flight <= nproc());
        assert!(peak.load(Ordering::SeqCst) <= nproc());
    }
}
