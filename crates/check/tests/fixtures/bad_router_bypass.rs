//! Fixture: bare device construction outside the cluster crate. All
//! four constructor paths must trip; the types in a signature, the string
//! mention, the `#[cfg(test)]` region and the allowed line are silent.

use kvcsd_core::{DeviceStack, KvCsdDevice};

pub fn bare(zns: Zns, cfg: Cfg) -> KvCsdDevice {
    KvCsdDevice::new(zns, CostModel::default(), cfg)
}

pub fn bare_reopen(zns: Zns, cfg: Cfg) -> KvCsdDevice {
    KvCsdDevice::reopen(zns, CostModel::default(), cfg)
}

pub fn bare_stack(geom: Geometry, zns: ZnsConfig, cfg: Cfg) -> DeviceStack {
    DeviceStack::new(geom, zns, cfg)
}

pub fn bare_stack_on(geom: Geometry, zns: ZnsConfig, cfg: Cfg, ledger: Ledger) -> DeviceStack {
    DeviceStack::with_ledger(geom, zns, cfg, ledger)
}

pub fn takes_a_device(_dev: &KvCsdDevice, _stack: &DeviceStack) {
    // Naming the types is fine; only the constructors trip.
    let _tag = "KvCsdDevice::new is also fine inside a string";
}

pub fn sanctioned(zns: Zns, cfg: Cfg) -> KvCsdDevice {
    // kvcsd-check: allow(router-bypass) -- recovery tool reopens the raw device image
    KvCsdDevice::reopen(zns, CostModel::default(), cfg)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_may_build_devices() {
        let _dev = KvCsdDevice::new(zns(), CostModel::default(), cfg());
        let _stack = DeviceStack::new(geom(), zns_config(), cfg());
    }
}
