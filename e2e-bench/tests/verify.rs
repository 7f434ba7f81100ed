//! The verifier accepts genuine answers and catches a tampered one.

mod common;

use ntr_circuit::Technology;
use ntr_e2e::verify::verify;
use ntr_e2e::workload::{net, route_line};
use ntr_server::json::Json;

fn exchanges() -> Vec<ntr_e2e::client::Exchange> {
    let mut out: Vec<_> = (0..6u64)
        .map(|i| {
            let algorithm = ["ldrg", "h1", "ert-ldrg"][i as usize % 3];
            common::answered(route_line(i, algorithm, "moment", &net(i, 9), None), false)
        })
        .collect();
    // A repeated net, answered from the cache.
    out.push(common::answered(
        route_line(6, "ldrg", "moment", &net(0, 9), None),
        true,
    ));
    out
}

/// Scales the `delay_ns` of reply `i` by `factor`.
fn tamper(xs: &mut [ntr_e2e::client::Exchange], i: usize, factor: f64) {
    let mut reply = xs[i].reply_json().expect("reply");
    let delay = reply.get("delay_ns").and_then(Json::as_f64).expect("delay");
    reply.set("delay_ns", Json::Num(delay * factor));
    xs[i].reply = Some(reply.to_line());
}

#[test]
fn genuine_answers_verify() {
    let xs = exchanges();
    let verdict = verify(&xs, 1, 2, Technology::date94());
    assert_eq!(verdict.checked, xs.len());
    assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);
}

#[test]
fn one_tampered_reply_is_one_mismatch() {
    let mut xs = exchanges();
    tamper(&mut xs, 2, 1.0 + 1e-6);
    let verdict = verify(&xs, 1, 2, Technology::date94());
    assert_eq!(verdict.mismatches.len(), 1, "{:?}", verdict.mismatches);
}

#[test]
fn a_cached_reply_must_equal_the_first_answer() {
    let mut xs = exchanges();
    let last = xs.len() - 1;
    tamper(&mut xs, last, 0.5);
    let verdict = verify(&xs, 1, 2, Technology::date94());
    assert_eq!(verdict.mismatches.len(), 1, "{:?}", verdict.mismatches);
    assert!(verdict.mismatches[0].contains("first answer"));
}

#[test]
fn differences_within_the_tolerance_pass() {
    let mut xs = exchanges();
    tamper(&mut xs, 1, 1.0 + 1e-12);
    let verdict = verify(&xs, 1, 2, Technology::date94());
    assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);
}
