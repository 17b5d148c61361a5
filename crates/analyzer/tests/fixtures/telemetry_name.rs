//! Fixture for the `telemetry-name` lint: a typo'd metric, a kind
//! mismatch, a registered use, a suppressed unregistered use, the
//! journal `event!` macro in both its forms, and the labeled
//! `counter_family` constructor.
//! Analyzed as text; never compiled.

pub fn typo() {
    surfnet_telemetry::count!("decoder.growth_round");
}

pub fn decoder_counter_typo() {
    // `cahce` — the registered name is `decoder.cache_hits`.
    surfnet_telemetry::count!("decoder.cahce_hits");
}

pub fn decoder_names_registered() {
    surfnet_telemetry::count!("decoder.cache_hits");
    surfnet_telemetry::count!("decoder.trivial_skips", 64);
    surfnet_telemetry::count!("decoder.peeling_passes");
    let _s = surfnet_telemetry::span!("decoder.peel");
}

pub fn wrong_kind() {
    let _s = surfnet_telemetry::span!("lp.solves");
}

pub fn registered() {
    surfnet_telemetry::count!("lp.solves");
}

pub fn grandfathered() {
    // analyzer:allow(telemetry-name): fixture demonstrates suppression
    surfnet_telemetry::count!("legacy.metric");
}

pub fn event_typo() {
    surfnet_telemetry::event!("journal.no_such_event");
}

pub fn event_wrong_kind() {
    surfnet_telemetry::event!("lp.solves");
}

pub fn event_registered() {
    surfnet_telemetry::event!("evaluate.shot_failed");
    surfnet_telemetry::event!("evaluate.shot_failed", 7);
}

pub fn stage_typo() {
    // `decod` — the registered per-stage histogram is `trial.stage.decode`.
    let _s = surfnet_telemetry::span!("trial.stage.decod");
}

pub fn family_registered() {
    let _f = surfnet_telemetry::dim::counter_family("netsim.link.attempts");
    let _d = surfnet_telemetry::dim::counter_family("decoder.distance.decodes");
}

pub fn family_typo() {
    // `attempt` — the registered family is `netsim.link.attempts`.
    let _f = surfnet_telemetry::dim::counter_family("netsim.link.attempt");
}

pub fn family_name_via_flat_counter() {
    // A Family name recorded through the flat counter macro is a kind
    // mismatch: the labeled series would silently never receive the data.
    surfnet_telemetry::count!("netsim.link.successes");
}

pub fn flat_name_via_family() {
    // And the converse: a Counter name used as a family constructor.
    let _f = surfnet_telemetry::dim::counter_family("lp.solves");
}

pub fn family_grandfathered() {
    // analyzer:allow(telemetry-name): fixture demonstrates suppression
    let _f = surfnet_telemetry::dim::counter_family("legacy.family");
}

pub fn stage_registered() {
    let _g = surfnet_telemetry::span!("trial.stage.gen");
    let _r = surfnet_telemetry::span!("trial.stage.route");
    let _l = surfnet_telemetry::span!("trial.stage.lp");
    let _e = surfnet_telemetry::span!("trial.stage.entangle");
    let _p = surfnet_telemetry::span!("trial.stage.purify");
    let _d = surfnet_telemetry::span!("trial.stage.decode");
    let _t = surfnet_telemetry::span!("trial.run");
    surfnet_telemetry::count!("journal.dropped");
}
