//! The compile-suite workload, and the optimizer-layer measurements every
//! traced run reports.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use lintra::dfg::build;
use lintra::egraph::StopReason;
use lintra::linsys::unfold;
use lintra::matrix::kernel_counters;
use lintra::opt::multi::ProcessorSelection;
use lintra::opt::{asic, multi, saturate, single, TechConfig};
use lintra::sched::list_schedule;
use lintra::suite::{suite, Design};
use lintra::transform::horner::HornerForm;
use lintra::transform::mcm_pass::{expand_multiplications, McmPassConfig};
use lintra_bench::render::{render_table2, render_table3, render_table4};
use lintra_bench::{table2_rows, table3_rows, table4_rows};

use crate::mix::V0;
use crate::report::Report;
use crate::stats::{geomean, median, pct};
use crate::trace::Trace;
use crate::Args;

const GOLDEN: [&str; 3] = [
    include_str!("../../tests/golden/table2.txt"),
    include_str!("../../tests/golden/table3.txt"),
    include_str!("../../tests/golden/table4.txt"),
];

/// What one pass over the suite produced.
struct Pass {
    wall: Duration,
    /// Geometric mean over the designs of the e-graph improvement.
    gain: f64,
    /// Per-layer values of this pass (filled only when traced).
    layers: BTreeMap<&'static str, f64>,
    /// The unfolding each design's asic result chose, in suite order.
    asic_unfoldings: Vec<u32>,
}

fn err(design: &str, e: impl std::fmt::Display) -> String {
    format!("design {design}: {e}")
}

/// One pass: the uncached single, multi, asic and egraph optimizers on
/// every design at [`V0`], then Tables 2–4. Checks every e-graph result
/// against its script and every table against its golden rendering.
fn pass(designs: &[Design], trace: &Trace, rep: &mut Report, req: u64) -> Result<Pass, String> {
    let tech = TechConfig::dac96(V0);
    let before = kernel_counters();
    let t0 = Instant::now();
    let root = trace.open("pass", None, req);
    let mut gains = Vec::new();
    let mut asic_unfoldings = Vec::new();
    let mut egraph_stats = Vec::new();
    for d in designs {
        let name = d.name;
        trace
            .span(&format!("opt.single/{name}"), root, req, |_| {
                single::optimize(&d.system, &tech).map(black_box)
            })
            .map_err(|e| err(name, e))?;
        trace
            .span(&format!("opt.multi/{name}"), root, req, |_| {
                multi::optimize(&d.system, &tech, ProcessorSelection::StatesCount).map(black_box)
            })
            .map_err(|e| err(name, e))?;
        let a = trace
            .span(&format!("opt.asic/{name}"), root, req, |_| {
                asic::optimize(&d.system, &tech, &asic::AsicConfig::default())
            })
            .map_err(|e| err(name, e))?;
        asic_unfoldings.push(a.unfolding);
        let s = trace
            .span(&format!("opt.egraph/{name}"), root, req, |_| {
                saturate::optimize(&d.system, &tech, &saturate::SaturateConfig::default())
            })
            .map_err(|e| err(name, e))?;
        rep.check(
            s.vs_script() >= 1.0,
            format!("{name}: egraph vs_script {} < 1", s.vs_script()),
        );
        gains.push(s.improvement());
        egraph_stats.push((name, s.stats));
    }
    let tables = trace.span("tables", root, req, |_| -> Result<[String; 3], String> {
        let e = |e: lintra::LintraError| e.to_string();
        Ok([
            render_table2(&table2_rows(V0).map_err(e)?, V0, false),
            render_table3(&table3_rows(V0).map_err(e)?, V0),
            render_table4(&table4_rows(V0).map_err(e)?, V0),
        ])
    })?;
    trace.close(root);
    let wall = t0.elapsed();
    let after = kernel_counters();
    for (k, (got, want)) in tables.iter().zip(GOLDEN).enumerate() {
        rep.check(
            got == want,
            format!(
                "table {} differs from tests/golden/table{}.txt",
                k + 2,
                k + 2
            ),
        );
    }

    let mut layers = BTreeMap::new();
    if trace.enabled() {
        let wall_ms = wall.as_secs_f64() * 1e3;
        let mut covered = 0.0;
        for (name, prefix) in [
            ("opt.single.ms", "opt.single/"),
            ("opt.multi.ms", "opt.multi/"),
            ("opt.asic.ms", "opt.asic/"),
            ("opt.egraph.ms", "opt.egraph/"),
            ("tables.ms", "tables"),
        ] {
            let ms = trace.children_ms(root, prefix);
            covered += ms;
            layers.insert(name, ms);
        }
        layers.insert("opt.coverage", covered / wall_ms);
        let (mut search, mut phases) = (0.0, [0.0; 3]);
        let (mut enodes, mut over, mut stops) = (0.0, 0.0, 0.0);
        let cap = saturate::SaturateConfig::default().budget.max_enodes;
        for (name, st) in &egraph_stats {
            let egraph_ms = trace.children_ms(root, &format!("opt.egraph/{name}"));
            layers.insert(egraph_design_metric(name), egraph_ms);
            search += egraph_ms - trace.children_ms(root, &format!("opt.asic/{name}"));
            phases[0] += st.match_s * 1e3;
            phases[1] += st.apply_s * 1e3;
            phases[2] += st.rebuild_s * 1e3;
            enodes += st.enodes as f64;
            over += st.enodes.saturating_sub(cap) as f64;
            stops += f64::from(u8::from(st.stop == StopReason::NodeBudget));
        }
        layers.insert("egraph.search.ms", search);
        layers.insert("egraph.match.ms", phases[0]);
        layers.insert("egraph.apply.ms", phases[1]);
        layers.insert("egraph.rebuild.ms", phases[2]);
        layers.insert("egraph.other.ms", search - phases.iter().sum::<f64>());
        layers.insert("egraph.enodes", enodes);
        layers.insert("egraph.enodes_over_cap", over);
        layers.insert("egraph.budget_stops", stops);
        layers.insert("matrix.mults", (after.mults - before.mults) as f64);
        layers.insert(
            "matrix.allocs_saved",
            (after.allocs_saved - before.allocs_saved) as f64,
        );
    }
    Ok(Pass {
        wall,
        gain: geomean(&gains),
        layers,
        asic_unfoldings,
    })
}

fn egraph_design_metric(design: &str) -> &'static str {
    match design {
        "ellip" => "opt.egraph.ellip.ms",
        "iir5" => "opt.egraph.iir5.ms",
        "iir6" => "opt.egraph.iir6.ms",
        "iir10" => "opt.egraph.iir10.ms",
        "iir12" => "opt.egraph.iir12.ms",
        "steam" => "opt.egraph.steam.ms",
        "dist" => "opt.egraph.dist.ms",
        _ => "opt.egraph.chemical.ms",
    }
}

/// Records the median over `passes` of every per-layer value.
fn set_layer_medians(passes: &[Pass], rep: &mut Report, source: &str) {
    let names: Vec<&'static str> = passes
        .first()
        .map(|p| p.layers.keys().copied().collect())
        .unwrap_or_default();
    for name in names {
        let xs: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.layers.get(name).copied())
            .collect();
        rep.set(
            name,
            median(&xs),
            format!("median of {} {source}", xs.len()),
        );
    }
}

/// Direct calls into each pipeline stage on every design, at the
/// unfolding its asic result chose: unfold, Horner form and its graph,
/// the MCM pass, list scheduling on the unfolded graph with one
/// processor per state, and the voltage bisection for the unfolding's
/// slowdown. Each value is the median over five rounds of the per-round
/// sum over designs, in microseconds.
fn stage_probes(
    designs: &[Design],
    unfoldings: &[u32],
    trace: &Trace,
    rep: &mut Report,
) -> Result<(), String> {
    let tech = TechConfig::dac96(V0);
    let cfg = asic::AsicConfig::default();
    let mcm = McmPassConfig {
        frac_bits: cfg.frac_bits,
        recoding: cfg.recoding,
    };
    const STAGES: [&str; 5] = [
        "linsys.unfold.us",
        "transform.horner.us",
        "transform.mcm.us",
        "sched.list.us",
        "power.voltage.us",
    ];
    let mut rounds: [Vec<f64>; 5] = Default::default();
    for round in 0..5u64 {
        let mut sums = [0.0f64; 5];
        for (d, &i) in designs.iter().zip(unfoldings) {
            let e = |x: &dyn std::fmt::Display| err(d.name, x);
            let [unfold_s, horner_s, mcm_s, sched_s, voltage_s] = &mut sums;
            let unfolded = timed(trace, "linsys.unfold", round, unfold_s, || {
                unfold(&d.system, i)
            })
            .map_err(|x| e(&x))?;
            let horner = timed(trace, "transform.horner", round, horner_s, || {
                HornerForm::new(&d.system, i)
                    .map_err(|x| e(&x))?
                    .to_dfg()
                    .map_err(|x| e(&x))
            })?;
            timed(trace, "transform.mcm", round, mcm_s, || {
                expand_multiplications(&horner, mcm).map(black_box)
            })
            .map_err(|x| e(&x))?;
            let graph = build::from_unfolded(&unfolded).map_err(|x| e(&x))?;
            timed(trace, "sched.list", round, sched_s, || {
                list_schedule(&graph, d.dims().2.max(1), &tech.processor).map(black_box)
            })
            .map_err(|x| e(&x))?;
            timed(trace, "power.voltage", round, voltage_s, || {
                tech.voltage
                    .voltage_for_slowdown(V0, f64::from(i + 1))
                    .map(black_box)
            })
            .map_err(|x| e(&x))?;
        }
        for (xs, s) in rounds.iter_mut().zip(sums) {
            xs.push(s * 1e6);
        }
    }
    for (name, xs) in STAGES.into_iter().zip(&rounds) {
        rep.set(
            name,
            median(xs),
            "median of 5 rounds, summed over the 8 designs",
        );
    }
    Ok(())
}

/// Runs `f` inside a span named `name`, adding its wall time to `sum`.
fn timed<R>(trace: &Trace, name: &str, round: u64, sum: &mut f64, f: impl FnOnce() -> R) -> R {
    trace.span(name, None, round, |_| {
        let t = Instant::now();
        let r = f();
        *sum += t.elapsed().as_secs_f64();
        r
    })
}

/// The optimizer-layer group of a traced run that does not itself run
/// passes: one traced probe pass, then the stage probes.
pub fn probe_layers(trace: &Trace, rep: &mut Report) -> Result<(), String> {
    let designs = suite();
    let p = pass(&designs, trace, rep, u64::MAX)?;
    set_layer_medians(std::slice::from_ref(&p), rep, "probe pass");
    stage_probes(&designs, &p.asic_unfoldings, trace, rep)
}

/// The compile-suite workload: set-up (suite construction and one
/// warm-up pass), then timed passes until the next one would overrun
/// `--seconds`.
pub fn run(args: &Args, trace: &Trace, rep: &mut Report) -> Result<(), String> {
    let t0 = Instant::now();
    let designs = suite();
    let warm = pass(&designs, &Trace::new(false), rep, 0)?;
    rep.set(
        "setup_s",
        t0.elapsed().as_secs_f64(),
        "suite construction + one warm-up pass",
    );

    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut last = warm.wall;
    while passes.is_empty() || start.elapsed() + last <= window {
        let p = pass(&designs, trace, rep, passes.len() as u64 + 1)?;
        last = p.wall;
        passes.push(p);
    }
    let timed = start.elapsed();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    let n = walls.len();
    rep.attempted = n as u64;
    let p50 = median(&walls);
    let p90 = pct(&walls, 900).expect("at least one pass");
    let gain = passes.last().map_or(0.0, |p| p.gain);
    rep.check(
        passes.iter().all(|p| p.gain == gain) && warm.gain == gain,
        "energy_gain differs between passes",
    );
    rep.line(format!(
        "compile_s {:.4} s (median of {n} passes; one pass = 8 designs x 4 strategies + Tables 2-4)",
        p50 / 1e3
    ));
    rep.line(format!(
        "pass walls (s): {}",
        walls
            .iter()
            .map(|w| format!("{:.3}", w / 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rep.line(format!("error_ratio 0 of {n} passes"));
    if trace.enabled() {
        rep.set("trace.p50_ms", p50, format!("median of {n} traced passes"));
        rep.set(
            "trace.overhead",
            trace.len() as f64 * Trace::span_cost_s() / timed.as_secs_f64(),
            format!("{} spans x measured span cost / traced window", trace.len()),
        );
        set_layer_medians(&passes, rep, "passes");
        stage_probes(&designs, &warm.asic_unfoldings, trace, rep)?;
    } else {
        rep.set("p50_ms", p50, format!("median pass, n={n}"));
        rep.set(
            "p90_ms",
            p90.value,
            format!("nearest rank over n={n} passes, {} beyond", p90.beyond),
        );
        rep.set(
            "throughput_per_s",
            (designs.len() * n) as f64 / walls.iter().sum::<f64>() * 1e3,
            "designs compiled per second",
        );
        rep.set(
            "energy_gain",
            gain,
            "geomean over 8 designs of egraph improvement()",
        );
    }
    Ok(())
}
