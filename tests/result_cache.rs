//! The server's `optimize` result cache, over real TCP: a repeat is
//! answered byte-identically from the cache, distinct requests never
//! share an entry, injected faults bypass it, and the entry count stays
//! bounded with least-recently-used eviction.

#![allow(clippy::expect_used)] // tests: a failed precondition should abort loudly

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use lintra::opt::Strategy;
use lintra::suite::by_name;
use lintra_bench::wire::{WireOp, WireRequest, WireResponse};
use lintra_serve::{
    optimize_result, start, ServerConfig, ServerHandle, ServerStats, RESULT_CACHE_CAPACITY,
};

const DESIGNS: [&str; 8] = [
    "ellip", "iir5", "iir6", "iir10", "iir12", "steam", "dist", "chemical",
];

fn config() -> ServerConfig {
    ServerConfig {
        jobs: Some(2),
        default_deadline: Duration::from_secs(60),
        ..ServerConfig::default()
    }
}

/// One persistent client connection speaking raw wire lines.
struct Line {
    reader: BufReader<TcpStream>,
}

impl Line {
    fn open(server: &ServerHandle) -> Line {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        Line {
            reader: BufReader::new(stream),
        }
    }

    /// Sends one request line and returns the parsed response.
    fn send(&mut self, line: &str) -> WireResponse {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).expect("write");
        if !line.ends_with('\n') {
            stream.write_all(b"\n").expect("write newline");
        }
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read");
        WireResponse::parse(resp.trim_end()).expect("valid response")
    }

    fn call(&mut self, req: &WireRequest) -> WireResponse {
        self.send(&req.render_line())
    }

    /// The compact `result` bytes of a request that must succeed.
    fn result(&mut self, req: &WireRequest) -> String {
        match self.call(req).outcome {
            Ok(result) => result.render_compact(),
            Err(f) => panic!("{} failed: {} {}", req.id, f.code, f.message),
        }
    }
}

fn optimize(
    id: &str,
    design: &str,
    strategy: &str,
    v0: f64,
    processors: Option<usize>,
) -> WireRequest {
    WireRequest::new(
        id,
        WireOp::Optimize {
            design: design.to_string(),
            strategy: strategy.to_string(),
            v0,
            processors,
        },
    )
}

/// (hits, misses)
fn counts(s: ServerStats) -> (u64, u64) {
    (s.result_hits, s.result_misses)
}

#[test]
fn every_design_and_strategy_is_served_byte_identically_from_the_cache() {
    let server = start(config()).expect("server starts");
    let mut line = Line::open(&server);
    for design in DESIGNS {
        for strategy in ["single", "multi", "asic", "egraph"] {
            let req = optimize(&format!("{design}-{strategy}"), design, strategy, 3.3, None);
            let first = line.result(&req);
            let hits = server.stats().result_hits;
            let second = line.result(&req);
            assert_eq!(server.stats().result_hits, hits + 1, "{design} {strategy}");
            assert_eq!(second, first, "{design} {strategy}");
            let d = by_name(design).expect("suite design");
            let strategy = Strategy::parse(strategy).expect("strategy");
            let library = optimize_result(&d, strategy, 3.3, None).expect("library result");
            assert_eq!(first, library.render_compact(), "{design} {strategy:?}");
        }
    }
    assert_eq!(counts(server.stats()), (32, 32));
    server.shutdown();
}

#[test]
fn equal_requests_share_an_entry_and_distinct_ones_do_not() {
    let server = start(config()).expect("server starts");
    let mut line = Line::open(&server);
    let base = line.result(&optimize("a", "iir5", "single", 3.3, None));
    assert_eq!(counts(server.stats()), (0, 1));

    // Byte-different spellings of the same request: a design alias and
    // a trailing zero in the voltage.
    let spelled = line.send(
        "{\"id\":\"b\",\"op\":\"optimize\",\"design\":\"wdf5\",\"strategy\":\"single\",\"v0\":3.30}",
    );
    assert_eq!(spelled.outcome.expect("ok").render_compact(), base);
    assert_eq!(counts(server.stats()), (1, 1));

    // The next f64 above 3.3 is a different supply.
    let next_up = f64::from_bits(3.3f64.to_bits() + 1);
    line.result(&optimize("c", "iir5", "single", next_up, None));
    assert_eq!(counts(server.stats()), (1, 2));

    // `multi` with the state-count default and with a processor cap.
    line.result(&optimize("d", "iir5", "multi", 3.3, None));
    line.result(&optimize("e", "iir5", "multi", 3.3, Some(2)));
    assert_eq!(counts(server.stats()), (1, 4));
    line.result(&optimize("f", "iir5", "multi", 3.3, Some(2)));
    assert_eq!(counts(server.stats()), (2, 4));

    // Validation errors are answered as before and never cached.
    for id in ["g", "h"] {
        let failure = line
            .call(&optimize(id, "iir5", "single", -1.0, None))
            .outcome
            .expect_err("negative supply");
        assert_eq!(failure.code, "VAL-CONFIG");
    }
    assert_eq!(counts(server.stats()), (2, 4));
    server.shutdown();
}

#[test]
fn injected_faults_bypass_a_cached_answer() {
    let server = start(ServerConfig {
        chaos: true,
        stall_budget: Duration::from_millis(80),
        ..config()
    })
    .expect("server starts");
    let mut line = Line::open(&server);
    let req = optimize("ok", "chemical", "single", 3.3, None);
    line.result(&req);
    line.result(&req);
    assert_eq!(counts(server.stats()), (1, 1));

    let mut stalled = req.clone();
    stalled.fault = Some("slow-worker".to_string());
    let failure = line.call(&stalled).outcome.expect_err("stall is flagged");
    assert_eq!(failure.code, "RES-WORKER-STALL");
    assert_eq!(
        counts(server.stats()),
        (1, 1),
        "the fault skipped the cache"
    );
    server.shutdown();
}

#[test]
fn the_entry_count_stays_bounded_and_recently_used_keys_survive() {
    let server = start(config()).expect("server starts");
    let mut line = Line::open(&server);
    let req = |k: usize| {
        optimize(
            &format!("k{k}"),
            "iir5",
            "single",
            2.0 + k as f64 / 1000.0,
            None,
        )
    };
    let total = RESULT_CACHE_CAPACITY + 64;
    for k in 0..total {
        line.result(&req(k));
        // Keep key 0 recently used; key 1 is never touched again.
        if k % 100 == 99 {
            line.result(&req(0));
        }
        assert!(
            server.result_cache_len() <= RESULT_CACHE_CAPACITY,
            "k = {k}"
        );
    }
    assert_eq!(server.result_cache_len(), RESULT_CACHE_CAPACITY);
    let (hits, misses) = counts(server.stats());
    line.result(&req(0));
    assert_eq!(counts(server.stats()), (hits + 1, misses), "key 0 survived");
    line.result(&req(1));
    assert_eq!(
        counts(server.stats()),
        (hits + 1, misses + 1),
        "key 1 was evicted"
    );
    server.shutdown();
}
