//! Pins the orchestrator's power bookkeeping bit for bit.
//!
//! One fixed, seeded script drives a single [`Orchestrator`] through every
//! path that changes a SoC's power: submits of every workload kind
//! (archive jobs with deadlines included) and finishes, clock advances
//! across idle-to-sleep transitions, `fail_soc`/`restore_soc`/
//! `inject_fault`, BMC `SetSocPowerState` frames applied through
//! `apply_bmc_state_changes`, and a brownout admission floor. At every
//! checkpoint the test folds the exact bits of `energy()`, `power()`, the
//! power series, every per-component/rail/chassis ledger energy and every
//! BMC sensor reading into one FNV-1a digest.
//!
//! The pinned values were produced by the full-sweep bookkeeping that
//! re-evaluated all 60 SoCs on every operation. Any cheaper bookkeeping
//! must reproduce them exactly: a SoC whose change is not booked, a rail
//! delta summed in another order or a sensor fed a stale reading moves
//! the bits.

use socc_cluster::bmc::{encode_command, BmcCommand, BmcResponse};
use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::priority::Priority;
use socc_cluster::workload::{SocProcessor, WorkloadId, WorkloadSpec};
use socc_dl::{DType, ModelId};
use socc_hw::ledger::Component;
use socc_hw::power::PowerState;
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;

/// `(energy() bits, power() bits, digest of everything)` per checkpoint.
const PINNED: [(u64, u64, u64); 8] = [
    (0x409612cbdad22809, 0x4068ed40bf9117d0, 0x361599cc25d9bac6),
    (0x40ca62f2f0ce66d4, 0x406b7ae3810a5c84, 0xa0e6a236cc7f1dfa),
    (0x40e220e5c8f5c830, 0x4058c88b604d2eb8, 0xc104a38619288717),
    (0x40e302c12553a5aa, 0x406319b994c79356, 0x5668fb185f4f2021),
    (0x40e503b89e96a376, 0x405e054eb0941ae8, 0x7994138c7b2bac29),
    (0x40e649b65210fc93, 0x40688720732db75a, 0x70bd854414e19fb7),
    (0x40e850397496c16c, 0x40605aecff1e69db, 0x2468b652c4d8c6f5),
    (0x40f5b382e8a77826, 0x404c5ced916872b0, 0x9b57a545833a56ab),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn bmc_read(o: &mut Orchestrator, cmd: BmcCommand) -> u64 {
    match o.bmc_frame(&encode_command(cmd)).expect("valid frame") {
        BmcResponse::PowerCw(v) | BmcResponse::Count(v) => u64::from(v),
        BmcResponse::TempDc(v) => u64::from(v),
        BmcResponse::FanDutyPct(v) => u64::from(v),
        BmcResponse::Ack => u64::MAX,
    }
}

/// The bits this test pins at one instant.
fn checkpoint(o: &mut Orchestrator) -> (u64, u64, u64) {
    let now = o.now();
    let energy = o.energy().as_joules().to_bits();
    let power = o.power().as_watts().to_bits();
    let mut h = Fnv::new();
    h.u64(now.as_nanos());
    h.u64(energy);
    h.u64(power);
    let stats = o.stats();
    for v in [
        stats.admitted,
        stats.rejected,
        stats.completed,
        stats.wakeups,
        stats.migrations,
        stats.dropped,
    ] {
        h.u64(v);
    }
    h.u64(o.power_series().len() as u64);
    for &(t, w) in o.power_series().samples() {
        h.u64(t.as_nanos());
        h.f64(w);
    }
    let ledger = o.energy_ledger();
    for soc in 0..ledger.socs() {
        for c in Component::ALL {
            h.f64(ledger.component_energy(soc, c, now).as_joules());
        }
    }
    for rail in 0..ledger.rails() {
        h.f64(ledger.rail_energy(rail, now).as_joules());
    }
    h.f64(ledger.chassis_energy(now).as_joules());
    let socs = o.cluster().soc_count();
    for soc in 0..socs as u8 {
        h.u64(bmc_read(o, BmcCommand::ReadSocPower(soc)));
        h.u64(bmc_read(o, BmcCommand::ReadSocTemp(soc)));
    }
    h.u64(bmc_read(o, BmcCommand::ReadChassisPower));
    h.u64(bmc_read(o, BmcCommand::ReadFanDuty));
    h.u64(bmc_read(o, BmcCommand::ReadEventCount));
    o.verify_energy_conservation(1e-9)
        .expect("ledger conserves energy at every checkpoint");
    (energy, power, h.0)
}

/// One random workload of any kind; archive jobs carry 10–120 s of work.
fn random_spec(rng: &mut SimRng) -> WorkloadSpec {
    let video = socc_video::vbench::by_id(["V1", "V2", "V4"][rng.uniform_usize(0, 3)])
        .expect("catalogue id");
    match rng.uniform_usize(0, 7) {
        0 => WorkloadSpec::LiveStreamCpu { video },
        1 => WorkloadSpec::LiveStreamHw { video },
        2 => WorkloadSpec::ArchiveJob {
            video: socc_video::vbench::by_id("V1").expect("catalogue id"),
            frames: 156 * rng.uniform_usize(1, 12) as u64,
        },
        3 => WorkloadSpec::DlServe {
            processor: SocProcessor::Cpu,
            model: ModelId::ResNet50,
            dtype: DType::Fp32,
            offered_fps: rng.uniform(1.0, 5.0),
        },
        4 => WorkloadSpec::DlServe {
            processor: SocProcessor::Gpu,
            model: ModelId::ResNet50,
            dtype: DType::Fp16,
            offered_fps: rng.uniform(5.0, 20.0),
        },
        5 => WorkloadSpec::DlServe {
            processor: SocProcessor::Dsp,
            model: ModelId::ResNet50,
            dtype: DType::Int8,
            offered_fps: rng.uniform(10.0, 60.0),
        },
        _ => WorkloadSpec::GamingSession {
            stream_mbps: rng.uniform(4.0, 12.0),
        },
    }
}

/// Submits `n` random workloads, keeping the ids of those that must be
/// finished explicitly (everything but archive jobs).
fn submit_burst(o: &mut Orchestrator, rng: &mut SimRng, n: usize, live: &mut Vec<WorkloadId>) {
    for _ in 0..n {
        let spec = random_spec(rng);
        let archive = matches!(spec, WorkloadSpec::ArchiveJob { .. });
        let placed = if rng.chance(0.2) {
            let board = rng.uniform_usize(0, 12) * 5;
            o.submit_avoiding(spec, std::slice::from_ref(&(board..board + 5)))
        } else {
            o.submit(spec)
        };
        if let (Ok(id), false) = (placed, archive) {
            live.push(id);
        }
    }
}

/// Finishes about `frac` of the live workloads, chosen by the rng.
fn finish_some(o: &mut Orchestrator, rng: &mut SimRng, frac: f64, live: &mut Vec<WorkloadId>) {
    let mut kept = Vec::with_capacity(live.len());
    for &id in live.iter() {
        if rng.chance(frac) {
            // A workload stranded by `fail_soc` is gone already.
            let _ = o.finish(id);
        } else {
            kept.push(id);
        }
    }
    *live = kept;
}

fn advance(o: &mut Orchestrator, secs: u64) {
    let t = o.now() + SimDuration::from_secs(secs);
    o.advance_to(t);
}

fn frame(o: &mut Orchestrator, soc: u8, state: PowerState) {
    let r = o
        .bmc_frame(&encode_command(BmcCommand::SetSocPowerState(soc, state)))
        .expect("valid frame");
    assert_eq!(r, BmcResponse::Ack);
}

fn run_script() -> Vec<(u64, u64, u64)> {
    let mut rng = SimRng::seed(0x0b00_c0de);
    let mut o = Orchestrator::new(OrchestratorConfig::default());
    let mut live = Vec::new();
    let mut marks = Vec::new();

    // Homogeneous start: SoC 0 fills with 13 identical V1 streams, then
    // dies; its victims migrate in the same instant. `inject_fault` moves
    // victims in map order, so which id lands where is not reproducible;
    // identical demands make the per-SoC loads reproducible, and the
    // streams finish SoC by SoC so every intermediate power is too.
    let v1 = socc_video::vbench::by_id("V1").expect("catalogue id");
    let streams: Vec<WorkloadId> = (0..20)
        .map(|_| {
            o.submit(WorkloadSpec::LiveStreamCpu { video: v1.clone() })
                .expect("empty cluster admits")
        })
        .collect();
    advance(&mut o, 7);
    o.inject_fault(0);
    marks.push(checkpoint(&mut o));
    advance(&mut o, 2);
    let mut by_soc: Vec<(usize, WorkloadId)> = streams
        .iter()
        .map(|&id| (o.placement_of(id).expect("migrated"), id))
        .collect();
    by_soc.sort_by_key(|&(soc, _)| soc);
    for (_, id) in by_soc {
        o.finish(id).expect("live stream");
    }

    // Mixed churn with archive deadlines falling inside the advances.
    for _ in 0..3 {
        submit_burst(&mut o, &mut rng, 40, &mut live);
        advance(&mut o, 13);
        finish_some(&mut o, &mut rng, 0.3, &mut live);
        advance(&mut o, 4);
    }
    marks.push(checkpoint(&mut o));

    // A quiet spell: finished SoCs go idle, then sleep (30 s default),
    // and archive jobs run out.
    finish_some(&mut o, &mut rng, 0.7, &mut live);
    advance(&mut o, 45);
    advance(&mut o, 140);
    assert!(o.cluster().state_counts().2 > 0, "idle SoCs fell asleep");
    marks.push(checkpoint(&mut o));

    // Fail two SoCs with work on them, churn, restore one; an empty SoC
    // dies too, and SoC 0 comes back from the initial fault.
    let busy: Vec<usize> = live.iter().filter_map(|&id| o.placement_of(id)).collect();
    let (a, b) = (busy[0], busy[busy.len() / 2]);
    let stranded = o.fail_soc(a).len() + o.fail_soc(b).len();
    assert!(stranded > 0, "the script fails busy SoCs");
    submit_burst(&mut o, &mut rng, 25, &mut live);
    advance(&mut o, 9);
    assert!(o.restore_soc(a));
    assert!(o.restore_soc(0));
    // A SoC with one workload dies: its lone victim migrates.
    let lone = live
        .iter()
        .filter_map(|&id| o.placement_of(id))
        .find(|&soc| o.cluster().socs[soc].workload_count() == 1)
        .expect("some SoC holds exactly one workload");
    o.inject_fault(lone);
    advance(&mut o, 3);
    marks.push(checkpoint(&mut o));

    // BMC power-state frames: power two SoCs off (one busy, one asleep),
    // bring a failed one back, then apply the queue in one go.
    finish_some(&mut o, &mut rng, 0.5, &mut live);
    let busy = live
        .iter()
        .find_map(|&id| o.placement_of(id))
        .expect("live work");
    frame(&mut o, busy as u8, PowerState::Off);
    frame(&mut o, 58, PowerState::Sleep);
    frame(&mut o, b as u8, PowerState::Active);
    frame(&mut o, lone as u8, PowerState::Idle);
    assert!(o.apply_bmc_state_changes() >= 3);
    advance(&mut o, 31);
    marks.push(checkpoint(&mut o));

    // Brownout: only interactive work is admitted while the floor holds.
    o.set_admission_floor(Some(Priority::Interactive));
    let rejected = o.stats().rejected;
    submit_burst(&mut o, &mut rng, 30, &mut live);
    assert!(o.stats().rejected > rejected, "the floor turned work away");
    advance(&mut o, 11);
    o.set_admission_floor(None);
    submit_burst(&mut o, &mut rng, 30, &mut live);
    advance(&mut o, 6);
    marks.push(checkpoint(&mut o));

    // Finish everything that is left and let the cluster fall asleep.
    let all = std::mem::take(&mut live);
    for id in all {
        let _ = o.finish(id);
    }
    advance(&mut o, 29);
    marks.push(checkpoint(&mut o));
    advance(&mut o, 600);
    marks.push(checkpoint(&mut o));
    marks
}

#[test]
fn power_bookkeeping_bits_are_pinned() {
    let got = run_script();
    let table: String = got
        .iter()
        .map(|(e, p, d)| format!("    ({e:#018x}, {p:#018x}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got.as_slice(),
        PINNED.as_slice(),
        "power bookkeeping moved; the script now produces:\n{table}"
    );
}

#[test]
fn power_bookkeeping_script_is_deterministic() {
    assert_eq!(run_script(), run_script());
}
