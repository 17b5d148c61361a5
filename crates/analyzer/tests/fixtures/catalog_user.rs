//! catalog-unused fixture: the file that keeps `demo.used` and the
//! `demo.family.used` family alive.

pub fn touch() -> &'static str {
    "demo.used"
}

pub fn touch_family() {
    let _f = surfnet_telemetry::family!("demo.family.used");
}
