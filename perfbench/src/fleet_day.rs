//! `fleet-day`: a phased Fig. 5 gaming day on a multi-site fleet with the
//! default seeded WAN partitions, driven serially on one thread:
//! `plan_window` → `take_window` → `SiteJob::step` per site in site order
//! → `absorb`. One unit is one synchronization window.
//!
//! The per-site step (orchestrator advance, placement index, energy
//! ledger, span log) does nearly all the work, so this workload is where a
//! change to the site step shows; the coordinator's plan and absorb are a
//! small share.

use socc_cluster::fleet::{FleetConfig, FleetSim};
use socc_net::packet::run_goodput_calibration;
use socc_sim::time::SimDuration;

use crate::{
    allocs_per_call, batch_count, derived, p50_tail_us, pooled, total_s, Batch, LayerTrace, Metric,
    Recorder,
};

/// Sites in the fleet.
pub const SITES: usize = 32;
/// Simulated hours: one day.
pub const HOURS: u64 = 24;
/// Synchronization window, seconds.
pub const WINDOW_SECS: u64 = 120;
/// Windows in the day, the units of one batch.
pub const UNITS: usize = (HOURS * 3600 / WINDOW_SECS) as usize + 1;

/// The fleet of `sites` sites the workload runs for `seed`.
pub fn config(seed: u64, sites: usize, hours: u64) -> FleetConfig {
    FleetConfig {
        sites,
        hours,
        window: SimDuration::from_secs(WINDOW_SECS),
        seed,
        ..FleetConfig::default()
    }
}

/// Builds the fleet for `seed` and runs one day.
pub fn batch(seed: u64, rec: &mut Recorder) -> Batch {
    rec.batch(
        |rec| {
            // Pays the goodput calibration a fresh process pays lazily on
            // its first fleet (migration pricing uses it).
            rec.call("net.calibrate", run_goodput_calibration);
            rec.call("fleet.new", || FleetSim::new(config(seed, SITES, HOURS)))
        },
        run,
    )
}

/// Drives `fleet` to the end of its run, one window per unit, checking
/// session accounting at every barrier.
pub fn run(rec: &mut Recorder, mut fleet: FleetSim, out: &mut Batch) {
    let sites = fleet.config().sites;
    while !fleet.done() {
        rec.unit(|rec| {
            let planned = rec.call("fleet.plan", || fleet.plan_window());
            assert!(planned, "a fleet that is not done plans a window");
            let mut jobs = rec.call("fleet.take_window", || fleet.take_window());
            for job in &mut jobs {
                rec.call("fleet.site_step", || job.step());
            }
            rec.call("fleet.absorb", || fleet.absorb(jobs));
        });
        let window = fleet.windows_done();
        if let Err(e) = rec.check(|| fleet.verify_session_accounting()) {
            out.fail(format!("window {window}: {e}"));
        }
    }
    let r = fleet.report();
    out.digest = fleet.digest();
    out.counts = vec![
        ("fleet.site_steps", (r.windows * sites) as f64),
        ("fleet.routed", r.routed as f64),
        ("fleet.rerouted", r.rerouted as f64),
        ("fleet.migrated", r.migrated as f64),
        ("fleet.stranded", r.stranded as f64),
    ];
}

/// Derives the critical-path sum a parallel step would hit: over
/// windows, the slowest site step of each.
pub(crate) fn derive(trace: &mut LayerTrace, spans: &[crate::Span]) {
    let mut max_per_unit: std::collections::BTreeMap<u32, u64> = Default::default();
    for s in spans.iter().filter(|s| s.name == "fleet.site_step") {
        let m = max_per_unit
            .entry(s.unit.expect("site steps run inside units"))
            .or_default();
        *m = (*m).max(s.ns());
    }
    let sum: u64 = max_per_unit.values().sum();
    trace.derived.push(("fleet.step_max_s", sum as f64 / 1e9));
}

/// The fleet layer's metrics.
pub fn layer_metrics(traces: &[LayerTrace]) -> Vec<Metric> {
    let (p50, tail) = p50_tail_us(pooled(traces, "fleet.site_step"));
    let mut m = vec![
        Metric::new("fleet.step_s", "s", total_s(traces, "fleet.site_step")),
        Metric::new("fleet.site_step_p50_us", "us", p50),
        Metric::new("fleet.site_step_tail_us", "us", tail),
        Metric::new(
            "fleet.allocs_per_site_step",
            "count",
            allocs_per_call(traces, "fleet.site_step"),
        ),
        Metric::new("fleet.plan_s", "s", total_s(traces, "fleet.plan")),
        Metric::new("fleet.absorb_s", "s", total_s(traces, "fleet.absorb")),
        Metric::new("fleet.step_max_s", "s", derived(traces, "fleet.step_max_s")),
        Metric::new("fleet.new_s", "s", total_s(traces, "fleet.new")),
    ];
    for name in [
        "fleet.site_steps",
        "fleet.routed",
        "fleet.rerouted",
        "fleet.migrated",
        "fleet.stranded",
    ] {
        m.push(Metric::new(name, "count", batch_count(traces, name)));
    }
    m
}
