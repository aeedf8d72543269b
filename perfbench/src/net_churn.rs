//! `net-churn`: the flow network on the 60-SoC fabric, held near a stream
//! population with a capped number of in-flight transfers, under the
//! `BENCH_net` operation mix (`add_stream`, `remove_stream`,
//! `start_transfer`, `advance_into`) plus an occasional PCB uplink
//! `fail_link` / `repair_link`. One unit is one round of four operations.
//!
//! No fleet or recovery path builds a `FlowNet`, so this is the only
//! workload that reaches the waterfill: steady churn runs its incremental
//! path, and a link failure forces the full-recompute fallback.

use socc_net::packet::run_goodput_calibration;
use socc_net::sim::{FlowNet, StreamId, TransferId};
use socc_net::tcp::TcpModel;
use socc_net::topology::{LinkId, NodeId, Topology};
use socc_sim::rng::SimRng;
use socc_sim::time::SimDuration;
use socc_sim::units::{DataRate, DataSize};

use crate::{batch_count, p50_tail_us, pooled, total_s, Batch, Fnv, LayerTrace, Metric, Recorder};

/// Target stream population.
pub const STREAMS: usize = 1000;
/// Operations in one unit: one turn of the four-way `BENCH_net` mix. A
/// single operation's time is bimodal (clock advances that complete no
/// transfer against reallocating operations), which put the median in
/// the gap between the modes, where it jumped by half between seeds.
pub const ROUND: usize = 4;
/// Rounds in one batch, the units (4,000 operations). The waterfill's
/// cost per operation is heavy-tailed (cascading updates), so a batch
/// needs thousands of operations for its total to vary little by seed.
pub const UNITS: usize = 1000;
/// Ceiling on in-flight transfers; beyond it the mix drains instead.
const MAX_TRANSFERS: usize = 64;
/// The population is held within ± this slack of [`STREAMS`].
const STREAM_SLACK: usize = 8;
/// An uplink fails once per this many operations …
const FAIL_PERIOD: usize = 500;
/// … at this offset into the period …
const FAIL_AT: usize = 125;
/// … and is repaired this many operations later.
const REPAIR_AFTER: usize = 100;
/// Stride through the uplink list between successive failures. It is
/// coprime to the 24 uplink directions, so the 8 failures of a batch
/// cross PCBs and both directions. The rotation is fixed, not seeded:
/// with a seeded choice, the waterfill work of a batch ranged over 41% of
/// its mean across ten seeds; with the rotation, 12%.
const FAIL_STRIDE: usize = 7;
/// Largest tolerated gap between the maintained rates and a from-scratch
/// max-min reference at the end of a batch, bits/s (the `BENCH_net`
/// gate).
pub const DRIFT_TOLERANCE_BPS: f64 = 1.0;

/// The network and the churn's own state.
pub struct World {
    net: FlowNet,
    /// Target stream population.
    streams: usize,
    /// Endpoint pairs: index 0 is the whole pool, index `1 + p` the pairs
    /// that touch no SoC of PCB `p` (routable while its uplink is down).
    pools: Vec<Vec<(NodeId, NodeId)>>,
    /// Every PCB uplink direction with its PCB.
    uplinks: Vec<(usize, LinkId)>,
    rng: SimRng,
    live: Vec<StreamId>,
    /// The uplink currently failed, with its PCB.
    down: Option<(usize, LinkId)>,
}

/// One drawn operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(NodeId, NodeId, DataRate),
    Remove(StreamId),
    Start(NodeId, NodeId, DataSize),
    Drain,
    Advance(SimDuration),
    Fail(usize, LinkId),
    Repair(LinkId),
}

/// What an operation left for the churn's own bookkeeping.
enum Done {
    Nothing,
    Added(StreamId),
    /// Streams a link failure left without a path (removed by the net).
    Lost(Vec<StreamId>),
}

/// Builds and populates the network for `seed`, then runs the churn.
pub fn batch(seed: u64, rec: &mut Recorder) -> Batch {
    rec.batch(
        |rec| world(seed, STREAMS, rec),
        |rec, w, out| run(rec, w, UNITS, out),
    )
}

/// Builds the fabric, the endpoint pools and the network populated with
/// `streams` streams.
pub fn world(seed: u64, streams: usize, rec: &mut Recorder) -> World {
    // Pays the calibration a fresh process pays lazily in
    // `TcpModel::inter_soc`.
    rec.call("net.calibrate", run_goodput_calibration);
    let fabric = Topology::soc_cluster(60);
    // Same-PCB pairs, mostly cross-PCB pairs, and SoC↔external: the
    // three traffic classes of the fabric, as `BENCH_net` draws them.
    let mut pool: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..30 {
        pool.push((fabric.socs[2 * i], fabric.socs[2 * i + 1]));
        pool.push((fabric.socs[i], fabric.socs[(i + 17) % 60]));
        pool.push((fabric.socs[i], fabric.external));
        pool.push((fabric.external, fabric.socs[(i * 7) % 60]));
    }
    let pcb_of = |n: NodeId| {
        fabric
            .socs
            .iter()
            .position(|&s| s == n)
            .map(|i| fabric.pcb_of_soc(i))
    };
    let mut pools = vec![pool.clone()];
    let mut uplinks = Vec::new();
    for p in 0..fabric.pcbs.len() {
        pools.push(
            pool.iter()
                .copied()
                .filter(|&(a, b)| pcb_of(a) != Some(p) && pcb_of(b) != Some(p))
                .collect(),
        );
        uplinks.extend(fabric.uplinks_of_pcb(p).into_iter().map(|l| (p, l)));
    }
    let mut net = FlowNet::new(fabric.topology.clone(), TcpModel::inter_soc());
    let mut rng = SimRng::seed(seed).split("net-churn");
    let live = rec.call("net.populate", || {
        populate(&mut net, &pool, streams, &mut rng)
    });
    World {
        net,
        streams,
        pools,
        uplinks,
        rng,
        live,
        down: None,
    }
}

/// Warms the route cache with every pair, fills the stream table to its
/// population, saturates the transfer cap and sizes the full-recompute
/// scratch once, as the `BENCH_net` churn does before measuring.
fn populate(
    net: &mut FlowNet,
    pool: &[(NodeId, NodeId)],
    streams: usize,
    rng: &mut SimRng,
) -> Vec<StreamId> {
    for &(src, dst) in pool {
        let id = net
            .add_stream(src, dst, DataRate::mbps(5.0))
            .expect("pool endpoints routable");
        net.remove_stream(id).expect("just added");
    }
    let mut live = Vec::with_capacity(streams + STREAM_SLACK + 1);
    while live.len() < streams + STREAM_SLACK {
        let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
        let demand = DataRate::mbps(rng.uniform(2.0, 20.0));
        live.push(net.add_stream(src, dst, demand).expect("routable"));
    }
    while live.len() > streams {
        let id = live.swap_remove(rng.uniform_usize(0, live.len()));
        net.remove_stream(id).expect("live stream");
    }
    while net.active_transfers() < MAX_TRANSFERS {
        let (src, dst) = pool[rng.uniform_usize(0, pool.len())];
        net.start_transfer(src, dst, DataSize::megabytes(rng.uniform(1.0, 8.0)))
            .expect("routable");
    }
    net.set_force_full_recompute(true);
    let (src, dst) = pool[0];
    let id = net
        .add_stream(src, dst, DataRate::mbps(5.0))
        .expect("routable");
    net.set_force_full_recompute(false);
    net.remove_stream(id).expect("just added");
    live
}

/// Draws operation `e`: an uplink failure or repair at fixed points of
/// each period, otherwise the `BENCH_net` mix keyed by `e % 4` (add,
/// remove, start or drain a transfer, advance the clock) with caps that
/// hold the population and the in-flight transfers steady.
fn draw(w: &mut World, e: usize) -> Op {
    let down = w.down;
    match (e % FAIL_PERIOD, down) {
        (FAIL_AT, None) => {
            let (pcb, link) = w.uplinks[(e / FAIL_PERIOD * FAIL_STRIDE) % w.uplinks.len()];
            return Op::Fail(pcb, link);
        }
        (p, Some((_, link))) if p == FAIL_AT + REPAIR_AFTER => return Op::Repair(link),
        _ => {}
    }
    let pool = &w.pools[down.map_or(0, |(pcb, _)| pcb + 1)];
    let live = w.live.len();
    match e % 4 {
        0 if live < w.streams + STREAM_SLACK => {
            let (src, dst) = pool[w.rng.uniform_usize(0, pool.len())];
            Op::Add(src, dst, DataRate::mbps(w.rng.uniform(2.0, 20.0)))
        }
        1 | 0 if live > w.streams - STREAM_SLACK => {
            Op::Remove(w.live.swap_remove(w.rng.uniform_usize(0, live)))
        }
        2 if w.net.active_transfers() < MAX_TRANSFERS => {
            let (src, dst) = pool[w.rng.uniform_usize(0, pool.len())];
            Op::Start(src, dst, DataSize::megabytes(w.rng.uniform(1.0, 8.0)))
        }
        2 => Op::Drain,
        _ => Op::Advance(SimDuration::from_millis(w.rng.uniform_usize(5, 50) as u64)),
    }
}

/// Draws and applies operation `e`, keeping the live-stream list and the
/// failed uplink up to date.
fn operate(
    rec: &mut Recorder,
    w: &mut World,
    e: usize,
    completed: &mut Vec<TransferId>,
) -> Result<(), String> {
    let op = draw(w, e);
    let net = &mut w.net;
    let done = match op {
        Op::Add(src, dst, demand) => rec
            .call("net.add_stream", || net.add_stream(src, dst, demand))
            .map(Done::Added),
        Op::Remove(id) => rec
            .call("net.remove_stream", || net.remove_stream(id))
            .map(|()| Done::Nothing),
        Op::Start(src, dst, size) => rec
            .call("net.start_transfer", || net.start_transfer(src, dst, size))
            .map(|_| Done::Nothing),
        Op::Drain => {
            if let Some(t) = rec.call("net.next_completion", || net.next_completion()) {
                completed.clear();
                rec.call("net.advance_into", || net.advance_into(t, completed));
            }
            Ok(Done::Nothing)
        }
        Op::Advance(step) => {
            completed.clear();
            let t = net.now() + step;
            rec.call("net.advance_into", || net.advance_into(t, completed));
            Ok(Done::Nothing)
        }
        Op::Fail(pcb, link) => {
            w.down = Some((pcb, link));
            Ok(Done::Lost(
                rec.call("net.fail_link", || net.fail_link(link))
                    .lost_streams,
            ))
        }
        Op::Repair(link) => {
            w.down = None;
            rec.call("net.repair_link", || net.repair_link(link));
            Ok(Done::Nothing)
        }
    };
    match done {
        Ok(Done::Added(id)) => w.live.push(id),
        Ok(Done::Lost(lost)) => w.live.retain(|id| !lost.contains(id)),
        Ok(Done::Nothing) => {}
        Err(err) => return Err(format!("op {e} {op:?}: {err}")),
    }
    Ok(())
}

/// Runs `rounds` units of [`ROUND`] operations, then checks the final
/// rates against a from-scratch reference and digests them.
pub fn run(rec: &mut Recorder, mut w: World, rounds: usize, out: &mut Batch) {
    let before = w.net.fairness_stats();
    let mut completed: Vec<TransferId> = Vec::with_capacity(MAX_TRANSFERS);
    for r in 0..rounds {
        let failure = rec.unit(|rec| {
            let mut failure = None;
            for e in r * ROUND..(r + 1) * ROUND {
                if let Err(msg) = operate(rec, &mut w, e, &mut completed) {
                    failure.get_or_insert(msg);
                }
            }
            failure
        });
        if let Some(msg) = failure {
            out.fail(msg);
        }
    }
    let stats = w.net.fairness_stats();
    let drift = rec.check(|| w.net.fairness_drift_vs_reference());
    if drift > DRIFT_TOLERANCE_BPS {
        out.batch_errors.push(format!(
            "rates drifted {drift} bps from the max-min reference"
        ));
    }
    let mut digest = Fnv::default();
    for &id in &w.live {
        match w.net.stream_rate(id) {
            Ok(rate) => digest.fold(rate.as_bps().to_bits()),
            Err(err) => out.batch_errors.push(format!("live stream {id:?}: {err}")),
        }
    }
    let delta = |a: u64, b: u64| (a - b) as f64;
    let reallocations = delta(stats.reallocations, before.reallocations);
    let touches = delta(stats.waterfill_touches, before.waterfill_touches);
    let cert = delta(stats.cert_touches, before.cert_touches);
    for v in [
        w.net.active_transfers() as u64,
        stats.reallocations,
        stats.full_recomputes,
        stats.incremental_updates,
        stats.waterfill_rounds,
        stats.waterfill_touches,
        stats.cert_rounds,
        stats.cert_touches,
    ] {
        digest.fold(v);
    }
    out.digest = digest.0;
    out.counts = vec![
        ("net.reallocations", reallocations),
        (
            "net.waterfill_rounds",
            delta(stats.waterfill_rounds, before.waterfill_rounds),
        ),
        ("net.waterfill_touches", touches),
        ("net.cert_touches", cert),
        (
            "net.full_recomputes",
            delta(stats.full_recomputes, before.full_recomputes),
        ),
        (
            "net.touches_per_realloc",
            (touches + cert) / reallocations.max(1.0),
        ),
    ];
}

/// The flow network's metrics.
pub fn layer_metrics(traces: &[LayerTrace]) -> Vec<Metric> {
    let p50 = |name| p50_tail_us(pooled(traces, name)).0;
    let mut m = vec![
        Metric::new("net.add_stream_p50_us", "us", p50("net.add_stream")),
        Metric::new("net.remove_stream_p50_us", "us", p50("net.remove_stream")),
        Metric::new("net.start_transfer_p50_us", "us", p50("net.start_transfer")),
        Metric::new("net.advance_p50_us", "us", p50("net.advance_into")),
        Metric::new("net.fail_link_p50_us", "us", p50("net.fail_link")),
        Metric::new("net.repair_link_p50_us", "us", p50("net.repair_link")),
    ];
    for name in [
        "net.reallocations",
        "net.waterfill_rounds",
        "net.waterfill_touches",
        "net.cert_touches",
        "net.full_recomputes",
    ] {
        m.push(Metric::new(name, "count", batch_count(traces, name)));
    }
    m.push(Metric::new(
        "net.touches_per_realloc",
        "count",
        batch_count(traces, "net.touches_per_realloc"),
    ));
    m.push(Metric::new(
        "net.populate_s",
        "s",
        total_s(traces, "net.populate"),
    ));
    m.push(Metric::new(
        "net.allocs_per_op",
        "count",
        allocs_per_op(traces),
    ));
    m
}

/// The flow-network calls a churn operation is made of.
const OP_CALLS: [&str; 7] = [
    "net.add_stream",
    "net.remove_stream",
    "net.start_transfer",
    "net.next_completion",
    "net.advance_into",
    "net.fail_link",
    "net.repair_link",
];

/// Allocations inside the flow-network calls of the churn, per call.
fn allocs_per_op(traces: &[LayerTrace]) -> f64 {
    let (allocs, calls) = traces
        .iter()
        .flat_map(|t| OP_CALLS.map(|name| t.stat(name)))
        .fold((0, 0), |(a, c), st| (a + st.allocs, c + st.count));
    allocs as f64 / calls.max(1) as f64
}
