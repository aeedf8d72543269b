//! The benchmark's own contract: deterministic inputs and digests per
//! seed, loops equivalent to the library's reference runners, a tail
//! rule that always leaves ten units beyond the percentile, and per-unit
//! best times.

use socc_cluster::fleet::FleetSim;
use socc_perfbench::{
    best_units, enclosure_chaos, fleet_day, net_churn, tail_quantile, units_beyond, Batch,
    LayerTrace, Recorder, UNIT_SPAN,
};

/// A small fleet (4 sites, 2 hours) keeps debug-build tests fast.
fn small_fleet(seed: u64) -> FleetSim {
    FleetSim::new(fleet_day::config(seed, 4, 2))
}

fn fleet_batch(seed: u64, traced: bool) -> (Batch, Recorder) {
    let mut rec = Recorder::new(traced);
    let batch = rec.batch(|_| small_fleet(seed), fleet_day::run);
    (batch, rec)
}

#[test]
fn serial_fleet_loop_matches_run_to_end() {
    for seed in [1, 7] {
        let mut reference = small_fleet(seed);
        reference.run_to_end();
        let (batch, _) = fleet_batch(seed, false);
        assert_eq!(batch.failed, 0, "{:?}", batch.failures);
        assert_eq!(batch.digest, reference.digest(), "seed {seed}");
        assert_eq!(batch.units.len(), reference.windows());
        assert_eq!(
            batch.count("fleet.routed"),
            Some(reference.report().routed as f64)
        );
    }
}

#[test]
fn fleet_digest_repeats_per_seed_and_differs_across_seeds() {
    let a = fleet_batch(3, false).0.digest;
    assert_eq!(a, fleet_batch(3, true).0.digest, "tracing changed the run");
    assert_ne!(a, fleet_batch(4, false).0.digest);
}

#[test]
fn chaos_loop_matches_run_campaign() {
    let mut rec = Recorder::new(false);
    let c = enclosure_chaos::campaigns(11, 3, &mut rec);
    let opts = enclosure_chaos::options(11);
    for k in 0..3 {
        let (corr, indep, _) = socc_bench::chaos::campaign_schedules(&opts, k);
        for (correlated, schedule) in [(true, &corr), (false, &indep)] {
            let ours = enclosure_chaos::run_campaign(&mut rec, &c, k, schedule)
                .expect("campaign passes its checks");
            let reference = socc_bench::chaos::run_campaign(&opts, k, correlated);
            assert!(
                reference.violations.is_empty(),
                "{:?}",
                reference.violations
            );
            assert_eq!(
                ours.availability.to_bits(),
                reference.availability.to_bits(),
                "campaign {k} correlated={correlated}"
            );
            assert_eq!(ours.migrations, reference.migrations);
            assert_eq!(ours.retries, reference.retries);
            assert_eq!(ours.sheds, reference.sheds);
            assert_eq!(ours.losses, reference.losses);
        }
    }
}

fn chaos_batch(seed: u64) -> Batch {
    let mut rec = Recorder::new(false);
    rec.batch(
        |rec| enclosure_chaos::campaigns(seed, 2, rec),
        enclosure_chaos::run,
    )
}

#[test]
fn chaos_digest_repeats_per_seed_and_differs_across_seeds() {
    let a = chaos_batch(5);
    assert_eq!(a.failed, 0, "{:?}", a.failures);
    assert_eq!(a.units.len(), 4);
    assert_eq!(a.digest, chaos_batch(5).digest);
    assert_ne!(a.digest, chaos_batch(6).digest);
}

fn net_batch(seed: u64, traced: bool) -> (Batch, Recorder) {
    let mut rec = Recorder::new(traced);
    // 150 rounds (600 operations) cross one uplink failure and repair.
    let batch = rec.batch(
        |rec| net_churn::world(seed, 100, rec),
        |rec, w, out| net_churn::run(rec, w, 150, out),
    );
    (batch, rec)
}

#[test]
fn net_digest_repeats_per_seed_and_differs_across_seeds() {
    let (a, rec) = net_batch(9, true);
    assert_eq!(a.failed, 0, "{:?}", a.failures);
    assert!(a.batch_errors.is_empty(), "{:?}", a.batch_errors);
    assert_eq!(a.units.len(), 150);
    let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
    for call in ["net.fail_link", "net.repair_link", "net.add_stream"] {
        assert!(names.contains(&call), "{call} never ran");
    }
    assert_eq!(a.digest, net_batch(9, false).0.digest);
    assert_ne!(a.digest, net_batch(10, false).0.digest);
}

#[test]
fn traced_spans_nest_under_their_unit() {
    let (batch, rec) = fleet_batch(2, true);
    let spans = rec.spans();
    let roots = spans.iter().filter(|s| s.name == UNIT_SPAN).count();
    assert_eq!(roots, batch.units.len());
    for s in spans {
        match s.parent {
            Some(p) => {
                let parent = &spans[p as usize];
                assert_eq!(parent.name, UNIT_SPAN);
                assert_eq!(parent.unit, s.unit);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
            None => assert!(s.name == UNIT_SPAN || s.unit.is_none()),
        }
    }
    let trace = LayerTrace::new(spans, batch);
    assert_eq!(
        trace.stat("fleet.site_step").count,
        4 * trace.batch.units.len() as u64
    );
    assert!(trace.coverage_pct() > 0.0 && trace.coverage_pct() <= 100.0);
}

#[test]
fn tail_rule_always_leaves_ten_units_beyond() {
    for n in 0..20 {
        assert_eq!(tail_quantile(n), None, "n = {n}");
    }
    for n in 20..20_000 {
        let q = tail_quantile(n).expect("20 units or more have a tail");
        // Pools of whole batches keep at least as many beyond it.
        for batches in 1..=4 {
            assert!(units_beyond(batches * n, q) >= 10, "n = {n} × {batches}");
        }
    }
    for w in socc_perfbench::Workload::ALL {
        assert!(tail_quantile(w.units_per_batch()).is_some(), "{w:?}");
    }
}

#[test]
fn best_units_takes_each_units_minimum_over_batches() {
    let batch = |units: &[u64]| Batch {
        units: units.to_vec(),
        ..Batch::default()
    };
    let batches = [batch(&[5, 9, 7]), batch(&[6, 3, 8]), batch(&[4, 10, 7])];
    assert_eq!(best_units(&batches), vec![4, 3, 7]);
    assert_eq!(best_units(&batches[1..2]), vec![6, 3, 8]);
}
