//! Device-side error type and its mapping onto protocol status codes.

use kvcsd_flash::FlashError;
use kvcsd_proto::KvStatus;
use std::fmt;

/// Errors raised inside the KV-CSD device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// No keyspace with that id/name.
    KeyspaceNotFound,
    /// Keyspace name collision at creation.
    KeyspaceExists,
    /// Operation not legal in the keyspace's current state.
    BadState {
        state: &'static str,
        op: &'static str,
    },
    /// Key missing on a point query.
    KeyNotFound,
    /// Secondary index name not found.
    IndexNotFound,
    /// Secondary index name collision.
    IndexExists,
    /// Index spec does not fit the stored values.
    BadIndexSpec,
    /// Malformed key or value in a request.
    BadPayload(String),
    /// The zone pool cannot supply a zone group of `need` zones: only
    /// `free` are free, `reserve` of them held back for sealing appends.
    OutOfZones { need: u32, free: u32, reserve: u32 },
    /// A SoC DRAM reservation (the named buffer) cannot be satisfied.
    OutOfDram(&'static str),
    /// Admission control rejected the command outright (overload).
    Busy(&'static str),
    /// Admission control write-stalled the command; the simulated stall
    /// was charged but the command did not execute.
    Stalled,
    /// The command's deadline expired before the work could complete.
    DeadlineExceeded,
    /// Underlying flash error.
    Flash(FlashError),
    /// Both metadata zones hold torn debris and neither holds a single
    /// CRC-valid snapshot generation. The device may have persisted
    /// state that is now unrecoverable, so reopen refuses to silently
    /// come up empty (serving "generation zero" would un-ack every
    /// write); an operator or the cluster failover path must decide.
    CorruptMetadata,
    /// A state change that is not an edge of the machine's lifecycle
    /// table (see `crate::lifecycle`).
    IllegalTransition {
        machine: &'static str,
        from: &'static str,
        to: &'static str,
    },
    /// No background job with that id was issued by this device.
    JobNotFound,
    /// Internal invariant violation.
    Internal(String),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::KeyspaceNotFound => write!(f, "keyspace not found"),
            DeviceError::KeyspaceExists => write!(f, "keyspace exists"),
            DeviceError::BadState { state, op } => {
                write!(f, "operation {op} not allowed in state {state}")
            }
            DeviceError::KeyNotFound => write!(f, "key not found"),
            DeviceError::IndexNotFound => write!(f, "secondary index not found"),
            DeviceError::IndexExists => write!(f, "secondary index exists"),
            DeviceError::BadIndexSpec => write!(f, "bad secondary index spec"),
            DeviceError::BadPayload(m) => write!(f, "bad payload: {m}"),
            DeviceError::OutOfZones {
                need,
                free,
                reserve,
            } => write!(
                f,
                "out of resources: need {need} zones, {free} free ({reserve} held in seal reserve)"
            ),
            DeviceError::OutOfDram(m) => write!(f, "out of resources: {m}"),
            DeviceError::Busy(why) => write!(f, "busy: {why}"),
            DeviceError::Stalled => write!(f, "write stalled (overload)"),
            DeviceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            DeviceError::Flash(e) => write!(f, "flash: {e}"),
            DeviceError::CorruptMetadata => {
                write!(f, "both metadata snapshot generations are corrupt")
            }
            DeviceError::IllegalTransition { machine, from, to } => {
                write!(f, "illegal {machine} transition: {from} -> {to}")
            }
            DeviceError::JobNotFound => write!(f, "background job not found"),
            DeviceError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<FlashError> for DeviceError {
    fn from(e: FlashError) -> Self {
        DeviceError::Flash(e)
    }
}

impl From<DeviceError> for KvStatus {
    fn from(e: DeviceError) -> KvStatus {
        match e {
            DeviceError::KeyspaceNotFound => KvStatus::KeyspaceNotFound,
            DeviceError::KeyspaceExists => KvStatus::KeyspaceExists,
            DeviceError::BadState { state, op } => KvStatus::BadKeyspaceState { state, op },
            DeviceError::KeyNotFound => KvStatus::KeyNotFound,
            DeviceError::IndexNotFound => KvStatus::IndexNotFound,
            DeviceError::IndexExists => KvStatus::IndexExists,
            DeviceError::BadIndexSpec => KvStatus::BadIndexSpec,
            DeviceError::BadPayload(_) => KvStatus::BadValue,
            DeviceError::OutOfZones { .. } => KvStatus::DeviceFull,
            DeviceError::OutOfDram(m) => KvStatus::Internal(m.into()),
            DeviceError::Busy(_) => KvStatus::Busy,
            DeviceError::Stalled => KvStatus::Stalled,
            DeviceError::DeadlineExceeded => KvStatus::DeadlineExceeded,
            DeviceError::Flash(FlashError::DeviceFull) => KvStatus::DeviceFull,
            DeviceError::Flash(e @ FlashError::InjectedTransient { .. }) => {
                KvStatus::TransientDeviceError(e.to_string())
            }
            DeviceError::Flash(e @ FlashError::InjectedPersistent { .. }) => {
                KvStatus::MediaError(e.to_string())
            }
            DeviceError::Flash(FlashError::PowerLoss) => KvStatus::PowerLoss,
            DeviceError::Flash(e) => KvStatus::Internal(e.to_string()),
            e @ DeviceError::CorruptMetadata => KvStatus::MediaError(e.to_string()),
            e @ DeviceError::IllegalTransition { .. } => KvStatus::Internal(e.to_string()),
            DeviceError::JobNotFound => KvStatus::JobNotFound,
            DeviceError::Internal(m) => KvStatus::Internal(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_to_protocol_statuses() {
        assert_eq!(
            KvStatus::from(DeviceError::KeyspaceNotFound),
            KvStatus::KeyspaceNotFound
        );
        assert_eq!(
            KvStatus::from(DeviceError::Flash(FlashError::DeviceFull)),
            KvStatus::DeviceFull
        );
        assert_eq!(
            KvStatus::from(DeviceError::OutOfZones {
                need: 8,
                free: 3,
                reserve: 1
            }),
            KvStatus::DeviceFull
        );
        assert_eq!(
            KvStatus::from(DeviceError::OutOfDram("sort DRAM")),
            KvStatus::Internal("sort DRAM".into())
        );
        assert!(matches!(
            KvStatus::from(DeviceError::Internal("x".into())),
            KvStatus::Internal(_)
        ));
        assert_eq!(
            KvStatus::from(DeviceError::Busy("job queue full")),
            KvStatus::Busy
        );
        assert_eq!(KvStatus::from(DeviceError::Stalled), KvStatus::Stalled);
        // Doubly-corrupt metadata is a media-grade failure: not retryable,
        // not degraded — the device cannot come up without intervention.
        assert!(matches!(
            KvStatus::from(DeviceError::CorruptMetadata),
            KvStatus::MediaError(_)
        ));
        assert_eq!(
            KvStatus::from(DeviceError::DeadlineExceeded),
            KvStatus::DeadlineExceeded
        );
    }

    #[test]
    fn display_is_informative() {
        let e = DeviceError::BadState {
            state: "COMPACTING",
            op: "put",
        };
        assert!(e.to_string().contains("COMPACTING"));
    }
}
