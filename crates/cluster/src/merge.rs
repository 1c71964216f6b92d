//! The scatter-gather merge.
//!
//! Every shard answers a scatter query in the order the router returns:
//! RANGE in key order, SIDX in `(encoded secondary key, primary key)`
//! order (the device's `SidxEntry` order). [`merge`] therefore never
//! sorts: it takes the smallest head among the parts, one entry at a
//! time, until it has the query's limit, and drops the rest unsorted.

use std::cmp::Ordering;
use std::ops::Range;

use kvcsd_proto::{SecondaryIndexSpec, SecondaryKeyType};

/// One `(key, value)` entry of a scatter-gathered answer.
type Entry = (Vec<u8>, Vec<u8>);

/// One shard's slice of a scatter-gathered entry set.
pub(crate) type Entries = Vec<Entry>;

/// Merge per-shard result sets into global key order, or — for a SIDX
/// query, given the recorded spec to re-derive each record's encoded
/// secondary key — into secondary-key order with ties broken by primary
/// key, keeping the first `limit`. A value too short to carry its
/// secondary key sorts first. Each part must already be in that order.
pub(crate) fn merge(
    parts: Vec<Entries>,
    order: Option<&SecondaryIndexSpec>,
    limit: Option<u64>,
) -> Entries {
    debug_assert!(
        parts
            .iter()
            .all(|p| p.windows(2).all(|w| entry_cmp(order, &w[0], &w[1]).is_le())),
        "a shard's answer is out of merge order"
    );
    let mut parts: Vec<Entries> = parts.into_iter().filter(|p| !p.is_empty()).collect();
    let total: usize = parts.iter().map(Vec::len).sum();
    let want = limit.map_or(total, |l| {
        total.min(usize::try_from(l).unwrap_or(usize::MAX))
    });
    if parts.len() <= 1 {
        let mut only = parts.pop().unwrap_or_default();
        only.truncate(want);
        return only;
    }
    let mut heads: Vec<Head> = parts
        .into_iter()
        .filter_map(|p| Head::new(p, order))
        .collect();
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        // A linear scan: there is one head per covering shard.
        let mut best = 0;
        for i in 1..heads.len() {
            if heads[i].cmp(&heads[best]) == Ordering::Less {
                best = i;
            }
        }
        let head = &mut heads[best];
        match head.rest.next() {
            Some(next) => {
                head.key = SecKey::of(order, &next.1);
                out.push(std::mem::replace(&mut head.entry, next));
            }
            None => out.push(heads.remove(best).entry),
        }
    }
    out
}

/// The merge order of two entries, re-deriving secondary keys with the
/// allocating [`SecondaryIndexSpec::extract`]: the order every part is
/// checked against, and the reference the tests sort by.
fn entry_cmp(order: Option<&SecondaryIndexSpec>, a: &Entry, b: &Entry) -> Ordering {
    match order {
        Some(s) => s
            .extract(&a.1)
            .cmp(&s.extract(&b.1))
            .then_with(|| a.0.cmp(&b.0)),
        None => a.0.cmp(&b.0),
    }
}

/// A part's smallest unmerged entry and the rest of the part.
struct Head {
    entry: Entry,
    /// `entry`'s secondary key, derived once when it became the head.
    key: SecKey,
    rest: std::vec::IntoIter<Entry>,
}

impl Head {
    fn new(part: Entries, order: Option<&SecondaryIndexSpec>) -> Option<Self> {
        let mut rest = part.into_iter();
        let entry = rest.next()?;
        let key = SecKey::of(order, &entry.1);
        Some(Self { entry, key, rest })
    }

    fn sort_key(&self) -> Option<&[u8]> {
        match &self.key {
            SecKey::Absent => None,
            SecKey::Fixed(buf, len) => Some(&buf[..*len]),
            SecKey::Span(span) => Some(&self.entry.1[span.clone()]),
        }
    }

    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_key()
            .cmp(&other.sort_key())
            .then_with(|| self.entry.0.cmp(&other.entry.0))
    }
}

/// A head entry's encoded secondary key, without an allocation.
enum SecKey {
    /// No secondary order (RANGE), or a value too short for the key.
    Absent,
    /// A fixed-width key: the first `len` bytes of the encoding.
    Fixed([u8; 8], usize),
    /// A `Bytes` key: this span of the entry's own value.
    Span(Range<usize>),
}

impl SecKey {
    fn of(order: Option<&SecondaryIndexSpec>, value: &[u8]) -> Self {
        let Some(spec) = order else {
            return Self::Absent;
        };
        let mut buf = [0; 8];
        let Some(len) = spec.extract_into(value, &mut buf).map(<[u8]>::len) else {
            return Self::Absent;
        };
        if spec.key_type == SecondaryKeyType::Bytes {
            // `extract_into` borrowed the key from the value itself.
            Self::Span(spec.value_offset..spec.value_offset + len)
        } else {
            Self::Fixed(buf, len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_proto::SidxKey;
    use kvcsd_sim::rng::XorShift64;

    /// The merge this module replaced: flatten, sort, truncate.
    fn reference(
        parts: &[Entries],
        order: Option<&SecondaryIndexSpec>,
        limit: Option<u64>,
    ) -> Entries {
        let mut all: Entries = parts.iter().flatten().cloned().collect();
        all.sort_unstable_by(|a, b| entry_cmp(order, a, b));
        if let Some(l) = limit {
            all.truncate(l as usize);
        }
        all
    }

    fn spec(
        key_type: SecondaryKeyType,
        value_offset: usize,
        value_len: usize,
    ) -> SecondaryIndexSpec {
        SecondaryIndexSpec {
            name: "s".into(),
            value_offset,
            value_len,
            key_type,
        }
    }

    /// The value stored under primary key number `pk`. Few distinct
    /// secondary keys, so equal secondary keys land in one part and on
    /// different parts; every seventh value is too short to carry one.
    fn value(key_type: SecondaryKeyType, pk: u64) -> Vec<u8> {
        if pk % 7 == 3 {
            return vec![0xEE];
        }
        let s = (pk * 0x9E37) % 5;
        let mut v = vec![0xAB];
        match key_type {
            SecondaryKeyType::U32 => v.extend_from_slice(&(s as u32 * 1000).to_le_bytes()),
            SecondaryKeyType::F32 => v.extend_from_slice(&(s as f32 - 2.0).to_le_bytes()),
            _ => v.extend_from_slice(&[b'a' + s as u8, b'z' - s as u8, b'm']),
        }
        v.push(pk as u8);
        v
    }

    /// 0–4 parts, each sorted in `order`. Primary keys come from a small
    /// space, so a RANGE part may repeat a key; entries are a function
    /// of their key, so equal-order entries are identical and the
    /// unstable reference sort is deterministic.
    fn parts(rng: &mut XorShift64, order: Option<&SecondaryIndexSpec>) -> Vec<Entries> {
        (0..rng.next_below(5))
            .map(|_| {
                let mut part: Entries = (0..rng.next_below(9))
                    .map(|_| {
                        let pk = rng.next_below(24);
                        let key = format!("k{pk:03}").into_bytes();
                        match order {
                            Some(s) => (key, value(s.key_type, pk)),
                            None => (key, vec![pk as u8; 3]),
                        }
                    })
                    .collect();
                part.sort_by(|a, b| entry_cmp(order, a, b));
                part
            })
            .collect()
    }

    #[test]
    fn merge_equals_the_flatten_sort_truncate_it_replaced() {
        let specs = [
            spec(SecondaryKeyType::U32, 1, 4),
            spec(SecondaryKeyType::F32, 1, 4),
            spec(SecondaryKeyType::Bytes, 1, 3),
        ];
        let orders: Vec<Option<&SecondaryIndexSpec>> = std::iter::once(None)
            .chain(specs.iter().map(Some))
            .collect();
        let mut rng = XorShift64::new(0x5EED_3E26);
        for _ in 0..400 {
            for &order in &orders {
                let parts = parts(&mut rng, order);
                let total = parts.iter().map(Vec::len).sum::<usize>() as u64;
                for limit in [None, Some(0), Some(1), Some(total), Some(total + 5)] {
                    assert_eq!(
                        merge(parts.clone(), order, limit),
                        reference(&parts, order, limit),
                        "order {order:?}, limit {limit:?}, parts {parts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_secondary_keys_on_different_shards_merge_by_primary_key() {
        let s = spec(SecondaryKeyType::F32, 0, 4);
        let v = |x: f32| x.to_le_bytes().to_vec();
        let parts = vec![
            vec![(b"b".to_vec(), v(-1.5)), (b"d".to_vec(), v(2.0))],
            vec![(b"a".to_vec(), v(2.0)), (b"c".to_vec(), v(2.0))],
        ];
        let got = merge(parts, Some(&s), Some(3));
        let keys: Vec<&[u8]> = got.iter().map(|e| e.0.as_slice()).collect();
        assert_eq!(keys, [&b"b"[..], b"a", b"c"]);
        assert_eq!(
            s.extract(&got[1].1),
            Some(SidxKey::F32(2.0).encode()),
            "the merge orders by the encoded key"
        );
    }
}
