//! Little-endian byte decoding helpers, and the workspace's one CRC-32.
//!
//! On-flash formats throughout the workspace decode fixed-width integers
//! out of page buffers. Before this module existed every such site spelled
//! `u32::from_le_bytes(buf[a..b].try_into().unwrap())` — dozens of
//! `unwrap()`s that the workspace's `clippy::unwrap_used` lint would have
//! to exempt one by one. These helpers are the single sanctioned funnel:
//! `le_*` for buffers whose length was already validated (an
//! out-of-bounds offset is an internal invariant violation and panics via
//! slice indexing, with no `unwrap` in sight), `try_le_*` for
//! tail-parsing paths that want to turn a short buffer into a typed
//! corruption error.

/// Decode a `u16` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Decode a `u32` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Decode a `u64` at `off`; panics if `buf` is too short (caller-validated
/// buffers only).
#[inline]
pub fn le_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Decode a `u16` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u16(buf: &[u8], off: usize) -> Option<u16> {
    Some(u16::from_le_bytes([*buf.get(off)?, *buf.get(off + 1)?]))
}

/// Decode a `u32` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u32(buf: &[u8], off: usize) -> Option<u32> {
    let s = buf.get(off..off + 4)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

/// Decode a `u64` at `off`, or `None` if the buffer is too short.
#[inline]
pub fn try_le_u64(buf: &[u8], off: usize) -> Option<u64> {
    let s = buf.get(off..off + 8)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(u64::from_le_bytes(b))
}

/// CRC-32 (IEEE) computed bytewise: small, dependency-free, and good
/// enough to catch the torn records and snapshots that log replay and
/// metadata restore must reject.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_at_offsets() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEADBEEFu32.to_le_bytes());
        buf.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(le_u16(&buf, 0), 0xBEEF);
        assert_eq!(le_u32(&buf, 2), 0xDEADBEEF);
        assert_eq!(le_u64(&buf, 6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn try_variants_reject_short_buffers() {
        let buf = [1u8, 2, 3];
        assert_eq!(try_le_u16(&buf, 1), Some(u16::from_le_bytes([2, 3])));
        assert_eq!(try_le_u16(&buf, 2), None);
        assert_eq!(try_le_u32(&buf, 0), None);
        assert_eq!(try_le_u64(&buf, 0), None);
        assert_eq!(try_le_u32(&[9u8; 4], 0), Some(u32::from_le_bytes([9; 4])));
    }

    #[test]
    #[should_panic]
    fn unchecked_panics_on_short_buffer() {
        le_u32(&[1u8, 2], 0);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
