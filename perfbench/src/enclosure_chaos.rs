//! `enclosure-chaos`: 60-SoC recovery campaigns under the chaos mix of
//! board drops, hangs, partitions and brownouts, each correlated schedule
//! followed by its independent twin, with schedules from
//! [`socc_bench::chaos::campaign_schedules`]. One unit is one campaign
//! run: `RecoveryEngine::new`, the board-aligned load through `submit`,
//! then `begin` → `step`* → `finish`.
//!
//! It shares the orchestrator and placement index with `fleet-day` but
//! loads them with fault storms (evacuations, retries, anti-affinity)
//! instead of arrival churn, and does no fleet coordination.

use socc_bench::chaos::{campaign_schedules, ChaosOptions};
use socc_bench::harness::mix_seed;
use socc_cluster::faults::FaultSchedule;
use socc_cluster::orchestrator::OrchestratorConfig;
use socc_cluster::recovery::{RecoveryConfig, RecoveryEngine, WorkloadFate};
use socc_cluster::workload::{WorkloadId, WorkloadSpec};
use socc_sim::time::SimTime;
use socc_video::video::VideoMeta;

use crate::{
    allocs_per_call, batch_count, p50_tail_us, pooled, total_s, Batch, Fnv, LayerTrace, Metric,
    Recorder,
};

/// Campaign pairs per batch (correlated plus independent twin each).
pub const PAIRS: usize = 64;
/// Campaign runs in one batch, the units.
pub const UNITS: usize = 2 * PAIRS;
/// Live V1 streams per board quantum (3 SoCs × 13 streams), as the chaos
/// sweep loads the enclosure.
const STREAMS_PER_BOARD: usize = 39;
/// Archive jobs per board quantum; the last board carries none.
const ARCHIVES_PER_BOARD: usize = 2;

/// The simulated statistics a batch reports, in digest order.
const COUNTS: [&str; 5] = [
    "recovery.steps",
    "recovery.migrations",
    "recovery.retries",
    "recovery.sheds",
    "recovery.losses",
];

/// The sweep options for `seed`.
pub fn options(seed: u64) -> ChaosOptions {
    ChaosOptions {
        campaigns: PAIRS,
        seed,
        ..ChaosOptions::default()
    }
}

/// Inputs of one batch: every campaign's schedule pair.
pub struct Campaigns {
    opts: ChaosOptions,
    video: VideoMeta,
    schedules: Vec<(FaultSchedule, FaultSchedule)>,
}

/// Draws the schedules for `seed` and runs every campaign.
pub fn batch(seed: u64, rec: &mut Recorder) -> Batch {
    rec.batch(|rec| campaigns(seed, PAIRS, rec), run)
}

/// Draws the schedules of `seed`'s first `pairs` campaign pairs.
pub fn campaigns(seed: u64, pairs: usize, rec: &mut Recorder) -> Campaigns {
    let opts = options(seed);
    let schedules = (0..pairs)
        .map(|k| {
            let (corr, indep, _) = rec.call("faults.schedule", || campaign_schedules(&opts, k));
            (corr, indep)
        })
        .collect();
    Campaigns {
        opts,
        video: socc_video::vbench::by_id("V1").expect("V1 in vbench"),
        schedules,
    }
}

/// What one campaign run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignStats {
    /// Post-run availability.
    pub availability: f64,
    /// Engine steps that processed an action.
    pub steps: u64,
    /// Successful post-fault re-placements.
    pub migrations: u64,
    /// Placement retries.
    pub retries: u64,
    /// Workloads shed.
    pub sheds: u64,
    /// Workloads lost.
    pub losses: u64,
}

/// Runs campaign `k` on `schedule` as one unit, then checks it. Returns
/// the stats, or the failed check.
pub fn run_campaign(
    rec: &mut Recorder,
    c: &Campaigns,
    k: usize,
    schedule: &FaultSchedule,
) -> Result<CampaignStats, String> {
    let horizon = SimTime::from_secs(c.opts.horizon_secs);
    let seed = mix_seed(c.opts.seed, k);
    let mut interactive: Vec<WorkloadId> = Vec::with_capacity(12 * STREAMS_PER_BOARD);
    let (eng, steps, admitted) = rec.unit(|rec| {
        let mut eng = rec.call("recovery.new", || {
            RecoveryEngine::new(
                OrchestratorConfig::default(),
                RecoveryConfig::default(),
                seed,
            )
        });
        let boards = eng.domains().boards;
        let mut admitted = Ok(());
        for board in 0..boards {
            for _ in 0..STREAMS_PER_BOARD {
                let spec = WorkloadSpec::LiveStreamCpu {
                    video: c.video.clone(),
                };
                match rec.call("recovery.submit", || eng.submit(spec)) {
                    Ok(id) => interactive.push(id),
                    Err(e) => admitted = Err(format!("stream refused: {e:?}")),
                }
            }
            let archives = if board + 1 == boards {
                0
            } else {
                ARCHIVES_PER_BOARD
            };
            for _ in 0..archives {
                let spec = WorkloadSpec::ArchiveJob {
                    video: c.video.clone(),
                    frames: 1_000_000_000,
                };
                if let Err(e) = rec.call("recovery.submit", || eng.submit(spec)) {
                    admitted = Err(format!("archive refused: {e:?}"));
                }
            }
        }
        rec.call("recovery.begin", || eng.begin(schedule, horizon));
        let mut steps = 0u64;
        while rec.call("recovery.step", || eng.step()) {
            steps += 1;
        }
        rec.call("recovery.finish", || eng.finish());
        (eng, steps, admitted)
    });
    rec.check(|| {
        admitted?;
        let fates = eng.fates();
        if let Some(id) = interactive
            .iter()
            .find(|id| fates.get(id).map(|r| r.fate) == Some(WorkloadFate::Lost))
        {
            return Err(format!("interactive workload {} lost", id.0));
        }
        if !eng.orchestrator().verify_placement_index() {
            return Err("placement index diverged from the linear scan".into());
        }
        let availability = eng.availability();
        if availability + 1e-12 < c.opts.availability_floor {
            return Err(format!(
                "availability {availability:.4} below floor {}",
                c.opts.availability_floor
            ));
        }
        let t = eng.telemetry();
        Ok(CampaignStats {
            availability,
            steps,
            migrations: t.counter("ft.migrations"),
            retries: t.counter("ft.retries"),
            sheds: t.counter("ft.workloads_shed"),
            losses: t.counter("ft.workloads_lost"),
        })
    })
}

/// Runs every campaign pair: the correlated schedule, then its twin.
pub fn run(rec: &mut Recorder, c: Campaigns, out: &mut Batch) {
    let mut digest = Fnv::default();
    let mut totals = [0u64; COUNTS.len()];
    for (k, (corr, indep)) in c.schedules.iter().enumerate() {
        for (correlated, schedule) in [(true, corr), (false, indep)] {
            match run_campaign(rec, &c, k, schedule) {
                Ok(s) => {
                    let counts = [s.steps, s.migrations, s.retries, s.sheds, s.losses];
                    digest.fold(s.availability.to_bits());
                    for (total, v) in totals.iter_mut().zip(counts) {
                        digest.fold(v);
                        *total += v;
                    }
                }
                Err(e) => {
                    digest.fold(u64::MAX);
                    out.fail(format!("campaign {k} correlated={correlated}: {e}"));
                }
            }
        }
    }
    out.digest = digest.0;
    out.counts = COUNTS.into_iter().zip(totals.map(|t| t as f64)).collect();
}

/// The recovery layer's metrics.
pub fn layer_metrics(traces: &[LayerTrace]) -> Vec<Metric> {
    let (submit_p50, _) = p50_tail_us(pooled(traces, "recovery.submit"));
    let (step_p50, step_tail) = p50_tail_us(pooled(traces, "recovery.step"));
    let mut m = vec![
        Metric::new("recovery.submit_s", "s", total_s(traces, "recovery.submit")),
        Metric::new("recovery.submit_p50_us", "us", submit_p50),
        Metric::new("recovery.step_s", "s", total_s(traces, "recovery.step")),
        Metric::new("recovery.step_p50_us", "us", step_p50),
        Metric::new("recovery.step_tail_us", "us", step_tail),
        Metric::new(
            "recovery.allocs_per_step",
            "count",
            allocs_per_call(traces, "recovery.step"),
        ),
        Metric::new("recovery.new_s", "s", total_s(traces, "recovery.new")),
        Metric::new("recovery.finish_s", "s", total_s(traces, "recovery.finish")),
        Metric::new("faults.schedule_s", "s", total_s(traces, "faults.schedule")),
    ];
    for name in COUNTS {
        m.push(Metric::new(name, "count", batch_count(traces, name)));
    }
    m
}
