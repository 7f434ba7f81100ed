//! Exchanges answered in-process, as a correct server would answer them.

use std::time::Instant;

use ntr_circuit::Technology;
use ntr_core::CancelToken;
use ntr_e2e::client::Exchange;
use ntr_e2e::replay::parse;
use ntr_server::engine::{self, Resilience};
use ntr_server::json::Json;
use ntr_server::proto::Request;

/// `request` with the reply `engine::execute` gives it.
pub fn answered(request: String, cached: bool) -> Exchange {
    let Ok(Request::Route(req)) = parse(&request) else {
        panic!("not a route request: {request}");
    };
    let net = engine::build_net(&req).expect("routable net");
    let out = engine::execute(
        &req,
        &net,
        Technology::date94(),
        &CancelToken::new(),
        &Resilience::default(),
    )
    .expect("route succeeds");
    let mut body = out.body;
    body.set("id", req.id.unwrap_or(Json::Null));
    body.set("cached", Json::Bool(cached));
    body.set("trace", Json::Num(1.0));
    let now = Instant::now();
    Exchange {
        step: 0,
        lane: 0,
        due: now,
        ready: now,
        sent: now,
        done: Some(now),
        request,
        reply: Some(body.to_line()),
    }
}
