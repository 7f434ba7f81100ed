//! Cooperative cancellation: tripped tokens abort the greedy searches
//! with `OracleError::Cancelled` instead of completing or hanging.

use std::time::Duration;

use ntr_circuit::Technology;
use ntr_core::{h1_with, ldrg_with, CancelToken, LdrgOptions, MomentOracle, OracleError};
use ntr_geom::{Layout, NetGenerator};
use ntr_graph::{prim_mst, RoutingGraph};

fn mst(seed: u64, size: usize) -> RoutingGraph {
    let net = NetGenerator::new(Layout::date94(), seed)
        .random_net(size)
        .unwrap();
    prim_mst(&net)
}

#[test]
fn tripped_token_cancels_ldrg_immediately() {
    let oracle = MomentOracle::new(Technology::date94());
    let token = CancelToken::new();
    token.cancel();
    let err = ldrg_with(
        &mst(1, 12),
        &oracle,
        &LdrgOptions {
            cancel: token,
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, OracleError::Cancelled(_)), "{err:?}");
}

#[test]
fn expired_deadline_cancels_ldrg() {
    let oracle = MomentOracle::new(Technology::date94());
    let opts = LdrgOptions {
        cancel: CancelToken::deadline_in(Duration::ZERO),
        ..Default::default()
    };
    assert!(matches!(
        ldrg_with(&mst(2, 15), &oracle, &opts),
        Err(OracleError::Cancelled(_))
    ));
}

#[test]
fn h1_with_respects_the_token() {
    let oracle = MomentOracle::new(Technology::date94());
    let token = CancelToken::new();
    token.cancel();
    assert!(matches!(
        h1_with(
            &mst(3, 10),
            &oracle,
            &LdrgOptions {
                cancel: token,
                ..Default::default()
            }
        ),
        Err(OracleError::Cancelled(_))
    ));
    // And a live token changes nothing relative to the default one.
    let live = CancelToken::new();
    let a = h1_with(
        &mst(3, 10),
        &oracle,
        &LdrgOptions {
            cancel: live,
            ..Default::default()
        },
    )
    .unwrap();
    let b = ntr_core::h1_with(&mst(3, 10), &oracle, &LdrgOptions::default()).unwrap();
    assert_eq!(a.final_delay(), b.final_delay());
    assert_eq!(a.iterations.len(), b.iterations.len());
}

#[test]
fn default_token_never_interferes() {
    let oracle = MomentOracle::new(Technology::date94());
    let res = ldrg_with(&mst(4, 9), &oracle, &LdrgOptions::default()).unwrap();
    assert!(res.final_delay() <= res.initial_delay);
}
