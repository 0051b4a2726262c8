//! Seeded request sequences. The workload seed is the only input: the
//! program under test receives just the generated requests.

use lintra::matrix::rng::SplitMix64;
use lintra::suite::suite;
use lintra_bench::wire::{WireOp, WireRequest};

/// Operating voltage of the compile-suite and serve-heavy requests.
pub const V0: f64 = 3.3;

/// One planned serve-light request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The exact request sent.
    pub req: WireRequest,
    /// `Some(j)` when this re-sends request `j`'s line unchanged.
    pub resend_of: Option<usize>,
}

/// The suite's design names, in suite order.
pub fn design_names() -> Vec<&'static str> {
    suite().iter().map(|d| d.name).collect()
}

/// A seed for stream `stream` of the workload seed, so each ladder step,
/// segment and workload draws its own sequence from one seed. Both
/// parts go through SplitMix64's output hash first: SplitMix64 steps its
/// state by a fixed constant, so seeds that differ by a multiple of it
/// would give one sequence shifted, not two independent ones.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed).next_u64() ^ SplitMix64::new(!stream).next_u64()
}

fn rng(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(stream_seed(seed, stream))
}

/// The serve-light sequence for one ladder step: 10% `ping`, 30%
/// `single`, 30% `multi`, 30% `sweep` (`max_i` 16–32), designs uniform,
/// `v0` uniform in [3, 4). Every compute request carries a fresh
/// `request_id`, except that one in ten re-sends an earlier compute line
/// that fell due at least `settle_after` requests before it.
pub fn light_plan(seed: u64, step: usize, n: usize, settle_after: usize) -> Vec<Planned> {
    let names = design_names();
    let mut r = rng(seed, 1 + step as u64);
    let mut out: Vec<Planned> = Vec::with_capacity(n);
    let mut fresh_compute: Vec<usize> = Vec::new();
    for k in 0..n {
        let roll = r.next_below(10);
        let id = format!("s{step}q{k}");
        if roll == 0 {
            out.push(Planned {
                req: WireRequest::new(id, WireOp::Ping),
                resend_of: None,
            });
            continue;
        }
        let settled = fresh_compute.partition_point(|&j| j + settle_after <= k);
        if r.next_below(10) == 0 && settled > 0 {
            let j = fresh_compute[r.next_below(settled as u64) as usize];
            out.push(Planned {
                req: out[j].req.clone(),
                resend_of: Some(j),
            });
            continue;
        }
        let design = names[r.next_below(names.len() as u64) as usize].to_string();
        let op = match roll {
            1..=3 => WireOp::Optimize {
                design,
                strategy: "single".to_string(),
                v0: r.range_f64(3.0, 4.0),
                processors: None,
            },
            4..=6 => WireOp::Optimize {
                design,
                strategy: "multi".to_string(),
                v0: r.range_f64(3.0, 4.0),
                processors: None,
            },
            _ => WireOp::Sweep {
                design,
                max_i: 16 + r.next_below(17) as u32,
            },
        };
        let req = WireRequest::new(id, op).with_request_id(format!("x{seed}-{step}-{k}"));
        fresh_compute.push(k);
        out.push(Planned {
            req,
            resend_of: None,
        });
    }
    out
}

/// The 16 serve-heavy tuples: `egraph` and `asic` on each design at
/// [`V0`], in Zipf rank order.
pub fn heavy_tuples() -> Vec<(&'static str, &'static str)> {
    design_names()
        .into_iter()
        .flat_map(|d| [(d, "egraph"), (d, "asic")])
        .collect()
}

/// Requests per shuffled block of the serve-heavy sequence.
const HEAVY_BLOCK: f64 = 128.0;

/// One block of the serve-heavy sequence before shuffling: tuple `i`
/// (rank `i + 1`) appears `round(128 / (rank · H))` times, at least once.
fn heavy_block() -> Vec<usize> {
    let t = heavy_tuples().len();
    let h: f64 = (1..=t).map(|r| 1.0 / r as f64).sum();
    (0..t)
        .flat_map(|i| {
            let count = (HEAVY_BLOCK / ((i + 1) as f64 * h)).round().max(1.0) as usize;
            std::iter::repeat_n(i, count)
        })
        .collect()
}

/// The serve-heavy sequence: Zipf(s = 1) over the tuples, stratified so
/// each block of about 128 requests holds every tuple its Zipf share of
/// times, shuffled by the seed. Stratifying keeps the work mix of a short
/// run close to the distribution instead of leaving it to a handful of
/// rare draws. Blocks are built on demand, so the sequence is unbounded.
#[derive(Debug, Clone)]
pub struct HeavyPlan {
    seed: u64,
    block: Vec<usize>,
    shuffled: Vec<Vec<usize>>,
}

impl HeavyPlan {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> HeavyPlan {
        HeavyPlan {
            seed,
            block: heavy_block(),
            shuffled: Vec::new(),
        }
    }

    /// The tuple index of request `k`.
    pub fn tuple(&mut self, k: usize) -> usize {
        let (b, at) = (k / self.block.len(), k % self.block.len());
        while self.shuffled.len() <= b {
            let mut r = rng(self.seed, 0x4EA7 + self.shuffled.len() as u64);
            let mut v = self.block.clone();
            for i in (1..v.len()).rev() {
                v.swap(i, r.next_below(i as u64 + 1) as usize);
            }
            self.shuffled.push(v);
        }
        self.shuffled[b][at]
    }
}

/// The wire request for serve-heavy tuple `(design, strategy)`, sent as
/// request `k`.
pub fn heavy_request(k: usize, (design, strategy): (&str, &str)) -> WireRequest {
    WireRequest::new(
        format!("h{k}"),
        WireOp::Optimize {
            design: design.to_string(),
            strategy: strategy.to_string(),
            v0: V0,
            processors: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn light_bytes(seed: u64) -> String {
        light_plan(seed, 0, 500, 80)
            .iter()
            .map(|p| p.req.render_line())
            .collect()
    }

    fn heavy_bytes(seed: u64) -> String {
        let tuples = heavy_tuples();
        let mut plan = HeavyPlan::new(seed);
        (0..500)
            .map(|k| heavy_request(k, tuples[plan.tuple(k)]).render_line())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_does_not() {
        assert_eq!(light_bytes(7), light_bytes(7));
        assert_ne!(light_bytes(7), light_bytes(8));
        assert_eq!(heavy_bytes(7), heavy_bytes(7));
        assert_ne!(heavy_bytes(7), heavy_bytes(8));
        // Streams are independent, not shifted copies of one sequence.
        let keys = |stream| -> std::collections::HashSet<String> {
            light_plan(7, stream, 200, 1000)
                .into_iter()
                .filter(|p| p.req.request_id.is_some())
                .map(|p| {
                    let mut key = p.req;
                    key.id.clear();
                    key.request_id = None;
                    key.render_line()
                })
                .collect()
        };
        let (a, b) = (keys(0), keys(1));
        assert!(
            a.iter()
                .filter(|k| b.contains(*k) && !k.contains("sweep"))
                .count()
                == 0,
            "two streams share optimize requests"
        );
    }

    #[test]
    fn the_light_mix_has_its_shape() {
        let plan = light_plan(3, 0, 4000, 80);
        let count = |f: &dyn Fn(&Planned) -> bool| plan.iter().filter(|p| f(p)).count();
        let pings = count(&|p| p.req.op == WireOp::Ping);
        assert!((300..500).contains(&pings), "{pings} pings in 4000");
        let resends = count(&|p| p.resend_of.is_some());
        assert!((250..450).contains(&resends), "{resends} re-sends in 4000");
        let mut ids = std::collections::HashSet::new();
        for (k, p) in plan.iter().enumerate() {
            match p.resend_of {
                Some(j) => {
                    assert!(j + 80 <= k, "a re-send repeats a settled line");
                    assert_eq!(p.req, plan[j].req);
                    assert!(plan[j].resend_of.is_none());
                }
                None => {
                    if let Some(rid) = &p.req.request_id {
                        assert!(ids.insert(rid.clone()), "fresh keys never repeat");
                    }
                }
            }
            if let WireOp::Optimize { v0, .. } = p.req.op {
                assert!((3.0..4.0).contains(&v0));
            }
            if let WireOp::Sweep { max_i, .. } = p.req.op {
                assert!((16..=32).contains(&max_i));
            }
        }
    }

    #[test]
    fn the_heavy_mix_is_zipf_over_sixteen_tuples() {
        assert_eq!(heavy_tuples().len(), 16);
        let mut plan = HeavyPlan::new(11);
        let mut counts = [0usize; 16];
        for k in 0..1000 {
            counts[plan.tuple(k)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        assert!(counts[0] > 3 * counts[3], "rank 1 is far ahead of rank 4");
        assert!(counts[0] >= counts[15] * 10);
    }
}
