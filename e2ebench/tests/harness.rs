//! Self-tests of the benchmark harness: reporting rules, statistics, names,
//! open-loop accounting, and the seeded plans.

use aeris_e2ebench::plan::{mixed_plan, Lateness, Outcome, PlanTier};
use aeris_e2ebench::report::{result_line, Ledger, Metrics, END_TO_END, PER_LAYER};
use aeris_e2ebench::serve::MIX;
use aeris_e2ebench::stats::{
    percentile, pooled_percentile, quartile_spread, quartiles, samples_beyond, supports, valid_name,
};
use aeris_e2ebench::WORKLOADS;
use aeris_obs::json::{parse, JsonValue};
use std::time::Duration;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert!(supports(100, 90.0) && !supports(99, 90.0));
    assert!(supports(40, 75.0) && !supports(39, 75.0));
    assert!(supports(20, 50.0) && !supports(19, 50.0));
    assert_eq!(samples_beyond(100, 90.0), 10);
    // Nearest rank: the smallest sample with q% of samples at or below it.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn percentiles_pool_raw_samples_never_average_series() {
    let fast: Vec<f64> = (1..=10).map(f64::from).collect();
    let slow: Vec<f64> = (101..=130).map(f64::from).collect();
    let pooled = pooled_percentile(&[&fast, &slow], 50.0).unwrap();
    let mut union = fast.clone();
    union.extend(&slow);
    assert_eq!(Some(pooled), percentile(&union, 50.0));
    assert_eq!(pooled, 110.0);
    let averaged = 0.5 * (percentile(&fast, 50.0).unwrap() + percentile(&slow, 50.0).unwrap());
    assert_ne!(pooled, averaged);
}

#[test]
fn quartile_spread_matches_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartile_spread(&v), Some(1.0));
    // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0] (order-free)
    assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some([1.0, 3.0, 4.0]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(quartile_spread(&[5.0; 8]), Some(0.0));
}

#[test]
fn names_use_the_allowed_charset() {
    for name in WORKLOADS
        .iter()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| n))
    {
        assert!(valid_name(name), "{name}");
    }
    for bad in [
        "",
        "_lead",
        ".lead",
        "has space",
        "slash/no",
        "ü",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name("a.b-c_9") && valid_name(&"x".repeat(64)));
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
        cat.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    let ms = Duration::from_millis;
    // On time: latency is the service time.
    assert_eq!(
        Lateness::new(ms(100), ms(100), ms(20)),
        Lateness {
            lag: ms(0),
            latency: ms(20)
        }
    );
    // A 50 ms generator stall is charged to the request it delayed.
    assert_eq!(
        Lateness::new(ms(100), ms(150), ms(20)),
        Lateness {
            lag: ms(50),
            latency: ms(70)
        }
    );
    // Sending early never makes latency shorter than the service time.
    assert_eq!(
        Lateness::new(ms(100), ms(90), ms(20)),
        Lateness {
            lag: ms(0),
            latency: ms(20)
        }
    );
}

#[test]
fn result_line_requires_every_metric_finite() {
    let ledger = Ledger::default();
    let mut m = Metrics::default();
    assert!(result_line(&ledger, &m, END_TO_END).is_err());
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        m.set(name, 1.5 + i as f64);
    }
    let line = result_line(&ledger, &m, END_TO_END).unwrap();
    let v = parse(&line).unwrap();
    assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(
        v.at(&["metrics", "setup_s", "value"])
            .and_then(JsonValue::as_f64),
        Some(1.5)
    );
    m.set("setup_s", f64::NAN);
    assert!(result_line(&ledger, &m, END_TO_END).is_err());
}

#[test]
fn mixed_plans_are_seeded_and_support_the_fast_p90_at_run_seconds() {
    let secs = benchmark_json()
        .get("run_seconds")
        .and_then(JsonValue::as_f64)
        .unwrap();
    let span = Duration::from_secs_f64(secs);
    for seed in 0..200u64 {
        let plan = mixed_plan(&MIX, span, seed);
        let again = mixed_plan(&MIX, span, seed);
        assert_eq!(plan.requests.len(), again.requests.len());
        assert!(plan
            .requests
            .iter()
            .zip(&again.requests)
            .all(|(a, b)| a.seed == b.seed && a.at == b.at));
        let fast_originals = plan
            .requests
            .iter()
            .filter(|r| {
                r.tier == PlanTier::Fast && r.replay_of.is_none() && r.outcome == Outcome::Served
            })
            .count();
        assert!(
            supports(fast_originals, 90.0),
            "seed {seed}: {fast_originals} fast originals"
        );
        for (i, r) in plan.requests.iter().enumerate() {
            if let Some(j) = r.replay_of {
                let orig = &plan.requests[j];
                assert!(
                    i - j >= MIX.replay_min_gap,
                    "seed {seed}: replay {i} of {j} too close"
                );
                assert_eq!(
                    (orig.seed, orig.nowcast, orig.tier, orig.outcome),
                    (r.seed, r.nowcast, r.tier, Outcome::Served)
                );
            }
        }
        let replays = plan
            .requests
            .iter()
            .filter(|r| r.replay_of.is_some())
            .count();
        assert!(
            plan.count(Outcome::Shed) > 0 && plan.count(Outcome::QuotaDenied) > 0 && replays > 0
        );
    }
}
