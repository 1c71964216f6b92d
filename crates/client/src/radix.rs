//! The write accelerator's staging-buffer sort: a stable MSD radix sort
//! over key bytes.
//!
//! The host only has to hand the device key-sorted bulks, and the keys it
//! stages are byte strings, so it need not pay `n·log₂n` comparisons for
//! the order. Each radix level reads one key byte per record twice — once
//! to count the bucket sizes, once to scatter the record into its bucket
//! — and buckets at or below [`CUTOFF`] records are finished by a
//! comparison sort. Keys that end at the current byte form the first
//! bucket, so a key sorts before every key it is a prefix of, exactly as
//! `[u8]` compares; keys in that bucket are equal and keep staging order.
//!
//! [`SortWork`] counts what was done: one key op per record per counting
//! pass and per scatter, `b·log₂b` comparisons for each comparison-sorted
//! bucket of `b`, and the staged bytes each scatter moves. A level is
//! scattered only if it pays off even when every bucket under it hits its
//! worst case; otherwise the bucket is comparison-sorted after its
//! counting pass. By induction no input costs more than
//! `n·log₂n + n` key ops — the comparison sort plus one counting pass —
//! however long its shared prefixes or however many equal keys it holds.
//!
//! The kernel reaches a record's key and size through accessors, so it
//! sorts the accelerator's small arena entries rather than owned pairs,
//! and any record whose order is a byte-string key can use it as is.

/// Buckets of at most this many records are comparison-sorted.
pub(crate) const CUTOFF: usize = 16;

/// Possible bucket slots at one level: "key ends here" plus 256 bytes.
const SLOTS: usize = 257;

/// The work one sort performed, in the units the host CPU model charges.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct SortWork {
    /// Key operations: comparisons, counting reads and scatter moves.
    pub(crate) key_ops: f64,
    /// Staged key and value bytes moved by scatters.
    pub(crate) bytes_moved: u64,
}

/// Stable-sort `items` by `key(item)` (equal keys keep their order) and
/// return the work it took; a scatter counts `size(item)` bytes moved per
/// item. The result equals `items.sort_by(|a, b| key(a).cmp(key(b)))`.
pub(crate) fn sort_by_key<T: Default>(
    items: &mut [T],
    key: impl Fn(&T) -> &[u8],
    size: impl Fn(&T) -> usize,
) -> SortWork {
    let mut work = SortWork::default();
    let mut spare = Vec::new();
    sort_bucket(items, 0, &mut spare, &mut work, &key, &size);
    work
}

/// Comparisons a comparison sort of `n` records is charged.
fn comparisons(n: usize) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let n = n as f64;
    n * n.log2()
}

/// The most [`sort_bucket`] can charge a bucket of `n` records.
fn worst_case(n: usize) -> f64 {
    if n <= CUTOFF {
        comparisons(n)
    } else {
        comparisons(n) + n as f64
    }
}

fn slot(key: &[u8], depth: usize) -> usize {
    key.get(depth).map_or(0, |&b| b as usize + 1)
}

fn comparison_sort<T>(items: &mut [T], work: &mut SortWork, key: &impl Fn(&T) -> &[u8]) {
    work.key_ops += comparisons(items.len());
    items.sort_by(|a, b| key(a).cmp(key(b)));
}

/// Sort `items`, whose keys all share their first `depth` bytes.
/// `spare` is the scatter target, reused by every level.
fn sort_bucket<T: Default>(
    items: &mut [T],
    depth: usize,
    spare: &mut Vec<T>,
    work: &mut SortWork,
    key: &impl Fn(&T) -> &[u8],
    size: &impl Fn(&T) -> usize,
) {
    let n = items.len();
    if n <= CUTOFF {
        comparison_sort(items, work, key);
        return;
    }
    let mut counts = [0usize; SLOTS];
    for item in items.iter() {
        counts[slot(key(item), depth)] += 1;
    }
    work.key_ops += n as f64;
    if counts[0] == n {
        // Every key ends here: all equal, already in staging order.
        return;
    }
    // Keys that end here need no further work; every other bucket may
    // cost up to its worst case. A level that does not split (shared
    // prefix) or splits too little falls back to the comparison sort.
    let split = n as f64 + counts[1..].iter().map(|&c| worst_case(c)).sum::<f64>();
    if split > comparisons(n) {
        comparison_sort(items, work, key);
        return;
    }

    let mut starts = [0usize; SLOTS];
    for s in 1..SLOTS {
        starts[s] = starts[s - 1] + counts[s - 1];
    }
    let mut next = starts;
    spare.clear();
    spare.resize_with(n, Default::default);
    for item in items.iter_mut() {
        let s = slot(key(item), depth);
        work.bytes_moved += size(item) as u64;
        spare[next[s]] = std::mem::take(item);
        next[s] += 1;
    }
    work.key_ops += n as f64;
    items.swap_with_slice(spare);

    for s in 1..SLOTS {
        if counts[s] > 1 {
            let bucket = &mut items[starts[s]..starts[s] + counts[s]];
            sort_bucket(bucket, depth + 1, spare, work, key, size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_sim::XorShift64;

    /// Tag every pair's value with its staging index so the comparison
    /// with `sort_by` also checks the order of duplicates.
    fn tagged(keys: Vec<Vec<u8>>) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| (k, (i as u32).to_be_bytes().to_vec()))
            .collect()
    }

    /// Sort `keys` both ways, assert equal output and the charge bound,
    /// and return the work.
    fn check(keys: Vec<Vec<u8>>) -> SortWork {
        let mut got = tagged(keys);
        let mut want = got.clone();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let n = got.len();
        let work = sort_by_key(&mut got, |p| p.0.as_slice(), |p| p.0.len() + p.1.len());
        assert_eq!(got, want, "radix output must equal the stable sort");
        let bound = comparisons(n) + n as f64;
        assert!(
            work.key_ops <= bound,
            "{n} records charged {} key ops, bound {bound}",
            work.key_ops
        );
        work
    }

    fn random_keys(n: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = XorShift64::new(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect()
    }

    #[test]
    fn random_keys_take_a_radix_level_and_beat_the_comparison_sort() {
        let n = 2428;
        let work = check(random_keys(n, 16, 1));
        assert!(
            work.key_ops < comparisons(n) / 2.0,
            "{} key ops vs {} comparisons",
            work.key_ops,
            comparisons(n)
        );
        assert!(work.bytes_moved >= (n * (16 + 4)) as u64, "one scatter");
    }

    #[test]
    fn duplicates_keep_staging_order() {
        let mut rng = XorShift64::new(2);
        let keys = (0..3000)
            .map(|_| vec![rng.next_below(8) as u8, rng.next_below(4) as u8])
            .collect();
        check(keys);
    }

    #[test]
    fn shared_prefixes_are_bounded() {
        // A long prefix every key shares, then a decimal suffix.
        let keys = (0..2000u32)
            .rev()
            .map(|i| format!("checkpoint/particles/{i:06}").into_bytes())
            .collect();
        check(keys);
        // Two halves that agree on every byte but the last.
        let keys = (0..1000u32)
            .map(|i| {
                let mut k = vec![b'p'; 24];
                k.push((i % 2) as u8);
                k
            })
            .collect();
        check(keys);
    }

    #[test]
    fn all_equal_keys_are_bounded() {
        let n = 1000;
        let work = check(vec![b"same-key".to_vec(); n]);
        assert_eq!(work.bytes_moved, 0, "nothing to scatter");
        let work = check(vec![Vec::new(); n]);
        assert_eq!(
            work.key_ops, n as f64,
            "one counting pass finds they all end"
        );
    }

    #[test]
    fn variable_length_keys_sort_prefixes_first() {
        let mut rng = XorShift64::new(3);
        let keys = (0..4000)
            .map(|_| {
                let len = rng.next_below(6) as usize;
                (0..len).map(|_| b'a' + rng.next_below(3) as u8).collect()
            })
            .collect();
        check(keys);
    }

    #[test]
    fn empty_and_one_element_inputs_cost_nothing() {
        assert_eq!(check(Vec::new()), SortWork::default());
        assert_eq!(check(vec![b"k".to_vec()]), SortWork::default());
    }

    #[test]
    fn small_and_mid_sized_inputs_match_at_every_size() {
        for n in [2, CUTOFF, CUTOFF + 1, 64, 257, 600] {
            check(random_keys(n, 3, n as u64));
            check(random_keys(n, 1, n as u64));
        }
    }
}
