//! The device stack: the one way to stand up a simulated KV-CSD.
//!
//! The paper's device is a fixed stack — NAND behind a zoned-namespace
//! SSD, with the key-value store on the SoC above it. [`DeviceStack`]
//! wires ledger → [`NandArray`] → [`ZonedNamespace`] → [`KvCsdDevice`]
//! with the paper's hardware timings and cost model, and owns the
//! power-cycle sequence crash tests run after an injected cut: detach
//! the fault injector, restore power, reopen from flash.

use std::sync::Arc;

use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
use kvcsd_sim::{CostModel, FaultInjector, FaultPlan, HardwareSpec, IoLedger};

use crate::{DeviceConfig, KvCsdDevice, Result};

/// One simulated device: its flash, its namespace, the configuration it
/// was built with and the device currently running on them.
pub struct DeviceStack {
    zns: Arc<ZonedNamespace>,
    cfg: DeviceConfig,
    device: Arc<KvCsdDevice>,
    /// The most recently armed injector, kept across power cycles so a
    /// re-armed run continues its fault schedule instead of restarting it.
    injector: Option<Arc<FaultInjector>>,
}

impl DeviceStack {
    /// Build a fresh device over a `geom` NAND array carved into zones by
    /// `zns`, charging a ledger of its own.
    pub fn new(geom: FlashGeometry, zns: ZnsConfig, cfg: DeviceConfig) -> Self {
        let ledger = Arc::new(IoLedger::new(geom.channels, geom.page_bytes));
        Self::with_ledger(geom, zns, cfg, ledger)
    }

    /// As [`DeviceStack::new`], charging `ledger` — for a testbed whose
    /// phase runner already reads that ledger.
    pub fn with_ledger(
        geom: FlashGeometry,
        zns: ZnsConfig,
        cfg: DeviceConfig,
        ledger: Arc<IoLedger>,
    ) -> Self {
        let nand = Arc::new(NandArray::new(geom, &HardwareSpec::default(), ledger));
        let zns = Arc::new(ZonedNamespace::new(nand, zns));
        let device = Arc::new(KvCsdDevice::new(
            Arc::clone(&zns),
            CostModel::default(),
            cfg.clone(),
        ));
        Self {
            zns,
            cfg,
            device,
            injector: None,
        }
    }

    /// The device currently running on this stack; a power cycle
    /// replaces it.
    pub fn device(&self) -> &Arc<KvCsdDevice> {
        &self.device
    }

    /// The ledger every layer of the stack charges.
    pub fn ledger(&self) -> &Arc<IoLedger> {
        self.zns.nand().ledger()
    }

    /// The zoned namespace, for tests that damage flash behind the
    /// device's back.
    pub fn zns(&self) -> &Arc<ZonedNamespace> {
        &self.zns
    }

    /// Attach a fresh fault injector running `plan`: every later flash
    /// operation consults it.
    pub fn arm(&mut self, plan: FaultPlan) -> Arc<FaultInjector> {
        let inj = Arc::new(FaultInjector::new(plan));
        self.injector = Some(Arc::clone(&inj));
        self.rearm();
        inj
    }

    /// Re-attach the most recently armed injector, its schedule
    /// continuing where the last power cycle left it.
    pub fn rearm(&self) {
        self.zns.nand().set_fault_injector(self.injector.clone());
    }

    /// Detach the fault injector: flash runs fault-free until re-armed.
    pub fn disarm(&self) {
        self.zns.nand().set_fault_injector(None);
    }

    /// Power-cycle the device: disarm, restore power, and reopen from
    /// what the namespace holds, with the configuration the stack was
    /// built with. Recovery runs fault-free. Re-enqueued jobs are left
    /// pending for the caller to run.
    pub fn power_cycle(&mut self) -> Result<()> {
        self.disarm();
        if let Some(inj) = &self.injector {
            inj.power_restore();
        }
        let device = KvCsdDevice::reopen(
            Arc::clone(&self.zns),
            CostModel::default(),
            self.cfg.clone(),
        )?;
        self.device = Arc::new(device);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::{DeviceHandler, KvCommand, KvResponse, KvStatus};

    /// Put and WAL-sync pairs `keys` into keyspace `ks`: the first error
    /// response, or `Flushed` once every pair is synced.
    fn put_synced(dev: &KvCsdDevice, ks: u32, keys: std::ops::Range<u32>) -> KvResponse {
        for i in keys {
            let put = KvCommand::Put {
                ks,
                key: i.to_be_bytes().to_vec(),
                value: vec![i as u8; 64],
            };
            for cmd in [put, KvCommand::Flush { ks }] {
                if let err @ KvResponse::Err(_) = dev.handle(cmd) {
                    return err;
                }
            }
        }
        KvResponse::Flushed
    }

    /// Ingest into a fresh keyspace until the armed plan cuts power,
    /// then power-cycle and check the injector is detached and power
    /// restored.
    fn cut_and_cycle(stack: &mut DeviceStack, inj: &FaultInjector, name: &str) {
        let dev = stack.device();
        let resp = match dev.handle(KvCommand::CreateKeyspace { name: name.into() }) {
            KvResponse::Created { ks } => put_synced(dev, ks, 0..u32::MAX),
            other => other,
        };
        assert_eq!(resp, KvResponse::Err(KvStatus::PowerLoss));
        assert!(inj.is_powered_off());
        stack
            .power_cycle()
            .expect("fault-free recovery must succeed");
        assert!(stack.zns().nand().fault_injector().is_none());
        assert!(!inj.is_powered_off());
    }

    #[test]
    fn power_cycles_reopen_fault_free_rearmed_or_armed_afresh() {
        let mut stack = DeviceStack::new(
            FlashGeometry::default(),
            ZnsConfig::default(),
            DeviceConfig {
                wal: true,
                ..DeviceConfig::default()
            },
        );
        let dev = stack.device();
        let KvResponse::Created { ks } = dev.handle(KvCommand::CreateKeyspace {
            name: "synced".into(),
        }) else {
            panic!("create failed");
        };
        assert_eq!(put_synced(dev, ks, 0..50), KvResponse::Flushed);

        let first = stack.arm(FaultPlan::power_cut_every(40, 7));
        cut_and_cycle(&mut stack, &first, "cut-1");
        // Re-arming resumes the same schedule: the next cut lands one
        // interval after the first.
        stack.rearm();
        cut_and_cycle(&mut stack, &first, "cut-2");
        let cuts = first.events();
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[1].op, cuts[0].op + 40);
        // Arming afresh replaces the injector.
        let second = stack.arm(FaultPlan::power_cut_every(25, 8));
        cut_and_cycle(&mut stack, &second, "cut-3");
        assert_eq!((first.events().len(), second.events().len()), (2, 1));

        // Every WAL-synced pair survived the three cycles.
        let dev = stack.device();
        assert!(matches!(
            dev.handle(KvCommand::Compact { ks }),
            KvResponse::JobStarted { .. }
        ));
        dev.run_pending_jobs();
        for i in 0..50u32 {
            let get = KvCommand::Get {
                ks,
                key: i.to_be_bytes().to_vec(),
            };
            assert_eq!(dev.handle(get), KvResponse::Value(vec![i as u8; 64]));
        }
    }
}
