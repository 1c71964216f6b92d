//! Self-tests of the reference model in `tests/contract/mod.rs`: it
//! rejects each violation the fault harnesses rely on it to catch.

mod contract;

use std::sync::Arc;

use contract::{value_for, Contract};
use kvcsd::proto::Bound;
use kvcsd::sim::IoLedger;

fn pair(key: &str) -> (Vec<u8>, Vec<u8>) {
    (key.into(), value_for(key.as_bytes(), 32))
}

/// Keyspace `ks` holding `a` and `b` fsynced and `c` only acked, with no
/// retried write on the watched ledger (`retries` bumps it).
fn model(retries: u64) -> Contract {
    let ledger = Arc::new(IoLedger::new(1, 4096));
    ledger.bump("client_retries", retries);
    let mut m = Contract::watching(ledger);
    for (k, v) in [pair("a"), pair("b"), pair("c")] {
        m.put("ks", &k, &v);
        if k == b"b" {
            m.sync("ks");
        }
    }
    m
}

#[test]
fn accepts_lost_unsynced_pairs_after_a_cut_and_duplicates_after_a_retry() {
    let mut m = model(1);
    m.power_cut();
    m.check_scan("ks", &[pair("a"), pair("a"), pair("b")]);
}

#[test]
fn accepts_a_limited_scan_that_stops_at_its_limit() {
    let mut m = model(0);
    let (lo, hi) = (&Bound::Unbounded, &Bound::Unbounded);
    m.check_range("ks", lo, hi, Some(0), &[]);
    m.check_range("ks", lo, hi, Some(2), &[pair("a"), pair("b")]);
}

#[test]
#[should_panic(expected = "ks: over limit")]
fn rejects_a_scan_over_its_limit() {
    let (lo, hi) = (&Bound::Unbounded, &Bound::Unbounded);
    model(0).check_range("ks", lo, hi, Some(0), &[pair("a")]);
}

#[test]
#[should_panic(expected = "ks: Durable pair b lost")]
fn rejects_a_lost_durable_pair() {
    model(0).check_scan("ks", &[pair("a"), pair("c")]);
}

#[test]
#[should_panic(expected = "ks: Acked pair c lost")]
fn rejects_a_lost_acked_pair_without_a_cut() {
    model(0).check_get("ks", b"c", None);
}

#[test]
#[should_panic(expected = "ks: torn value under b")]
fn rejects_a_torn_value() {
    let (k, mut v) = pair("b");
    v[31] ^= 1;
    model(0).check_scan("ks", &[pair("a"), (k, v), pair("c")]);
}

#[test]
#[should_panic(expected = "ks: foreign key d visible")]
fn rejects_a_foreign_key() {
    model(0).check_scan("ks", &[pair("a"), pair("b"), pair("c"), pair("d")]);
}

#[test]
#[should_panic(expected = "ks: scan out of key order at a")]
fn rejects_an_out_of_order_scan() {
    model(0).check_scan("ks", &[pair("b"), pair("a"), pair("c")]);
}

#[test]
#[should_panic(expected = "ks: duplicate key a with no retried write")]
fn rejects_a_duplicate_when_no_write_was_retried() {
    model(0).check_scan("ks", &[pair("a"), pair("a"), pair("b"), pair("c")]);
}
