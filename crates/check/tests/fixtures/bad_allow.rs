//! Fixture: malformed or unused exemptions — the allowlist is checked,
//! not decorative.

pub fn unknown_rule(g: Geometry) -> KvCsdDevice {
    // kvcsd-check: allow(panics) -- not a rule name, so this grants nothing
    KvCsdDevice::new(g)
}

pub fn retired_rule(g: Geometry) -> KvCsdDevice {
    // kvcsd-check: allow(unwrap) -- clippy::unwrap_used enforces this now, so this grants nothing
    KvCsdDevice::new(g)
}

pub fn legacy_separator(g: Geometry) -> KvCsdDevice {
    // kvcsd-check: allow(router-bypass): the pre-v2 colon syntax grants nothing
    KvCsdDevice::reopen(g)
}

pub fn empty_reason(g: Geometry) -> KvCsdDevice {
    // kvcsd-check: allow(router-bypass) --
    KvCsdDevice::new(g)
}

// kvcsd-check: allow(router-bypass) -- nothing on the next line builds a device
pub fn idle() {}
