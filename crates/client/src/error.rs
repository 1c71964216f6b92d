//! Client-side error type.

use kvcsd_proto::KvStatus;
use std::fmt;

/// Errors surfaced by the client library.
///
/// Errors split into *retryable* (the device said an identical resend may
/// succeed; the built-in [`crate::RetryPolicy`] already spent its budget
/// before surfacing one) and *fatal* (resending cannot help).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The device reported a status error.
    Device(KvStatus),
    /// A retryable device error kept failing past the retry budget.
    RetriesExhausted { attempts: u32, last: KvStatus },
    /// The device answered with a response of an unexpected shape
    /// (protocol bug; should never happen).
    UnexpectedResponse(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Device(s) => write!(f, "device error: {s}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "device error after {attempts} attempts: {last}")
            }
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<KvStatus> for ClientError {
    fn from(s: KvStatus) -> Self {
        ClientError::Device(s)
    }
}

/// Coarse disposition of one device status, the ground truth behind
/// [`ClientError::is_retryable`] / [`is_degraded`](ClientError::is_degraded) /
/// [`is_fatal`](ClientError::is_fatal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusClass {
    /// An identical resend may succeed.
    Retryable,
    /// The device (or one keyspace/shard) gracefully degraded: reads keep
    /// serving, resends are pointless until out-of-band recovery, but the
    /// stack is not dead.
    Degraded,
    /// Resending cannot help and the device is not merely degraded.
    Fatal,
}

/// Classify one wire status. The match is deliberately exhaustive *by
/// name* over every [`KvStatus`] variant (rustc rejects a missing one;
/// the denied `clippy::wildcard_enum_match_arm` rejects a `_` or binding
/// catch-all): adding a wire status forces a conscious decision here
/// instead of a catch-all arm silently treating it as fatal.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn status_class(s: &KvStatus) -> StatusClass {
    match s {
        // The device said an identical resend may succeed; agrees with
        // `KvStatus::is_retryable` (asserted in tests).
        KvStatus::Busy
        | KvStatus::Stalled
        | KvStatus::TransientDeviceError(_)
        | KvStatus::FailoverInProgress { .. }
        | KvStatus::EpochFenced { .. } => StatusClass::Retryable,
        // Space exhausted on a keyspace or device: writes fail fast,
        // reads keep serving. A dead shard with no promotable replica is
        // the cluster-level analogue — the rest of the fleet keeps
        // serving, only that key range is down until out-of-band repair.
        KvStatus::DeviceFull | KvStatus::ShardUnavailable { .. } => StatusClass::Degraded,
        KvStatus::BadKeyspaceState {
            state: "READ_ONLY", ..
        } => StatusClass::Degraded,
        KvStatus::BadKeyspaceState { .. }
        | KvStatus::KeyspaceNotFound
        | KvStatus::KeyspaceExists
        | KvStatus::KeyNotFound
        | KvStatus::BadKey
        | KvStatus::BadValue
        | KvStatus::IndexNotFound
        | KvStatus::IndexExists
        | KvStatus::BadIndexSpec
        | KvStatus::JobNotFound
        | KvStatus::DeadlineExceeded
        | KvStatus::MediaError(_)
        | KvStatus::PowerLoss
        | KvStatus::Internal(_) => StatusClass::Fatal,
    }
}

impl ClientError {
    /// True if this is a "key not found" miss (a common, non-fatal case).
    pub fn is_not_found(&self) -> bool {
        matches!(self, ClientError::Device(KvStatus::KeyNotFound))
    }

    /// True when resending the same command may succeed. Note that
    /// [`ClientError::RetriesExhausted`] is *not* retryable: the policy
    /// already spent its budget on a transient error that never cleared.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Device(s) if status_class(s) == StatusClass::Retryable)
    }

    /// True when the device (or one keyspace) has gracefully degraded
    /// (see [`StatusClass::Degraded`]): callers should shed write load or
    /// switch to read paths rather than tearing the connection down. A
    /// retry budget spent against a degraded status reports degraded too.
    pub fn is_degraded(&self) -> bool {
        match self {
            ClientError::Device(s) | ClientError::RetriesExhausted { last: s, .. } => {
                status_class(s) == StatusClass::Degraded
            }
            ClientError::UnexpectedResponse(_) => false,
        }
    }

    /// True when resending the same command cannot help *and* the device
    /// is not merely degraded. Degraded errors are recoverable through
    /// out-of-band action (delete data, re-compact), so they are neither
    /// retryable nor fatal.
    pub fn is_fatal(&self) -> bool {
        !self.is_retryable() && !self.is_degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_found_detection() {
        assert!(ClientError::from(KvStatus::KeyNotFound).is_not_found());
        assert!(!ClientError::from(KvStatus::DeviceFull).is_not_found());
        assert!(!ClientError::UnexpectedResponse("x".into()).is_not_found());
    }

    #[test]
    fn display() {
        let e = ClientError::Device(KvStatus::KeyspaceNotFound);
        assert!(e.to_string().contains("keyspace not found"));
        let e = ClientError::RetriesExhausted {
            attempts: 5,
            last: KvStatus::TransientDeviceError("busy".into()),
        };
        assert!(e.to_string().contains("5 attempts"));
    }

    #[test]
    fn retryable_fatal_split() {
        assert!(ClientError::Device(KvStatus::TransientDeviceError("soft".into())).is_retryable());
        assert!(ClientError::Device(KvStatus::FailoverInProgress { shard: 0 }).is_retryable());
        assert!(ClientError::Device(KvStatus::EpochFenced { shard: 0 }).is_retryable());
        for fatal in [
            ClientError::Device(KvStatus::MediaError("die".into())),
            ClientError::Device(KvStatus::PowerLoss),
            ClientError::Device(KvStatus::KeyNotFound),
            ClientError::Device(KvStatus::DeadlineExceeded),
            ClientError::RetriesExhausted {
                attempts: 3,
                last: KvStatus::TransientDeviceError("soft".into()),
            },
            ClientError::UnexpectedResponse("x".into()),
        ] {
            assert!(fatal.is_fatal(), "{fatal:?}");
            assert!(!fatal.is_retryable(), "{fatal:?}");
            assert!(!fatal.is_degraded(), "{fatal:?}");
        }
    }

    #[test]
    fn status_class_agrees_with_wire_retryability() {
        // One representative per variant: `Retryable` here must mean
        // exactly what the wire protocol promises in
        // `KvStatus::is_retryable`.
        let all = [
            KvStatus::KeyspaceNotFound,
            KvStatus::KeyspaceExists,
            KvStatus::BadKeyspaceState {
                state: "READ_ONLY",
                op: "put",
            },
            KvStatus::BadKeyspaceState {
                state: "COMPACTING",
                op: "put",
            },
            KvStatus::KeyNotFound,
            KvStatus::BadKey,
            KvStatus::BadValue,
            KvStatus::IndexNotFound,
            KvStatus::IndexExists,
            KvStatus::BadIndexSpec,
            KvStatus::JobNotFound,
            KvStatus::DeviceFull,
            KvStatus::Busy,
            KvStatus::Stalled,
            KvStatus::DeadlineExceeded,
            KvStatus::TransientDeviceError("soft".into()),
            KvStatus::MediaError("die".into()),
            KvStatus::PowerLoss,
            KvStatus::ShardUnavailable { shard: 1 },
            KvStatus::FailoverInProgress { shard: 1 },
            KvStatus::EpochFenced { shard: 1 },
            KvStatus::Internal("bug".into()),
        ];
        for s in all {
            assert_eq!(
                status_class(&s) == StatusClass::Retryable,
                s.is_retryable(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn degraded_is_neither_retryable_nor_fatal() {
        for degraded in [
            ClientError::Device(KvStatus::DeviceFull),
            ClientError::Device(KvStatus::BadKeyspaceState {
                state: "READ_ONLY",
                op: "put",
            }),
            ClientError::RetriesExhausted {
                attempts: 5,
                last: KvStatus::DeviceFull,
            },
            ClientError::Device(KvStatus::ShardUnavailable { shard: 2 }),
            ClientError::RetriesExhausted {
                attempts: 5,
                last: KvStatus::ShardUnavailable { shard: 2 },
            },
        ] {
            assert!(degraded.is_degraded(), "{degraded:?}");
            assert!(!degraded.is_retryable(), "{degraded:?}");
            assert!(!degraded.is_fatal(), "{degraded:?}");
        }
        // Other bad-state errors are not degraded mode.
        let busy_state = ClientError::Device(KvStatus::BadKeyspaceState {
            state: "COMPACTING",
            op: "put",
        });
        assert!(!busy_state.is_degraded());
        // Overload signals are retryable, not degraded.
        assert!(!ClientError::Device(KvStatus::Busy).is_degraded());
        assert!(ClientError::Device(KvStatus::Busy).is_retryable());
    }
}
