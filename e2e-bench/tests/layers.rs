//! The timed search changes no result, its layers account for the whole
//! search, and the replay's layers account for the whole request path.

mod common;

use ntr_circuit::Technology;
use ntr_core::CancelToken;
use ntr_e2e::layers::timed_search;
use ntr_e2e::replay::{parse, replay};
use ntr_e2e::workload::{net, route_line};
use ntr_server::engine::{self, Resilience};
use ntr_server::json::Json;
use ntr_server::proto::Request;

const SEEDS: u64 = 20;

fn check(algorithm: &str, oracle: &str, pins: usize, seeds: u64) {
    let tech = Technology::date94();
    for seed in 0..seeds {
        let line = route_line(seed, algorithm, oracle, &net(1000 + seed, pins), None);
        let Ok(Request::Route(req)) = parse(&line) else {
            panic!("route request");
        };
        let net = engine::build_net(&req).expect("net");
        let plain = engine::execute(
            &req,
            &net,
            tech,
            &CancelToken::new(),
            &Resilience::default(),
        )
        .expect("route");
        let plain_ns = plain
            .body
            .get("delay_ns")
            .and_then(Json::as_f64)
            .expect("delay");
        let timed = timed_search(&req, &net, tech)
            .expect("timed search")
            .expect("a greedy search");
        assert_eq!(
            timed.delay_ns.to_bits(),
            plain_ns.to_bits(),
            "{algorithm}/{oracle} seed {seed}: {} vs {plain_ns}",
            timed.delay_ns
        );
        let oracle_time = timed.oracle.prepare + timed.oracle.score + timed.oracle.eval;
        assert!(
            timed.route >= oracle_time,
            "{algorithm} seed {seed}: oracle time exceeds the search"
        );
        assert!(timed.oracle.prepare_count >= 1);
        assert!(timed.extract <= timed.oracle.prepare + timed.route);
    }
}

#[test]
fn wrapped_ldrg_is_bit_identical() {
    check("ldrg", "moment", 12, SEEDS);
}

#[test]
fn wrapped_h1_is_bit_identical() {
    check("h1", "moment", 12, SEEDS);
}

#[test]
fn wrapped_ert_ldrg_is_bit_identical() {
    check("ert-ldrg", "moment", 12, SEEDS);
}

#[test]
fn wrapped_transient_ldrg_is_bit_identical() {
    check("ldrg", "transient-fast", 6, SEEDS);
}

#[test]
fn replay_layers_sum_to_the_replay_wall_time() {
    let xs: Vec<_> = (0..12u64)
        .map(|i| {
            let algorithm = ["ldrg", "h1", "ert-ldrg"][i as usize % 3];
            // Every fourth request repeats an earlier net: a cache hit.
            let net_seed = if i % 4 == 3 { i - 3 } else { i };
            common::answered(
                route_line(i, algorithm, "moment", &net(net_seed, 10), None),
                false,
            )
        })
        .collect();
    let r = replay(&xs, xs.len(), Technology::date94()).expect("replay");
    assert_eq!(r.requests, xs.len());
    assert_eq!(r.parse.len(), xs.len());
    assert!(r.engine.len() < xs.len(), "repeated nets hit the cache");
    assert!(
        r.sum_error() < 0.05,
        "layers miss {:.2}% of the wall time",
        r.sum_error() * 100.0
    );
    assert!(r
        .searches
        .iter()
        .all(|s| s.route >= s.oracle.prepare + s.oracle.score + s.oracle.eval));
}
