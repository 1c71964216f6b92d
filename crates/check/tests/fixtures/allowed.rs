//! Fixture: every would-be violation carries a valid exemption or sits
//! in a `#[cfg(test)]` region — this file must scan clean.

pub fn bare(g: Geometry) -> KvCsdDevice {
    // kvcsd-check: allow(router-bypass) -- single-device diagnostic with no shard to route through
    KvCsdDevice::new(g)
}

pub fn gauge() -> Arc<Cell<u64>> { // kvcsd-check: allow(shared-raw) -- same-line form of the allow
    Arc::new(Cell::new(0))
}

pub fn not_a_real_construction() -> &'static str {
    // Mentions of KvCsdDevice::new inside string literals are scrubbed
    // before scanning, as is this comment.
    "never call KvCsdDevice::new in library code"
}

#[cfg(test)]
mod tests {
    #[test]
    fn bare_devices_in_tests_are_idiomatic() {
        let dev = KvCsdDevice::new(geom());
        let probe: Arc<Cell<u8>> = Arc::new(Cell::new(0));
        assert!(dev.is_empty() && probe.get() == 0);
    }
}
