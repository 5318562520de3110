//! Model-based testing of the object store: a random sequence of
//! PUT, GET, ranged GET and LIST is applied both to the simulated store
//! (inside a sim) and to a plain `BTreeMap` reference model; every
//! observable result must agree.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::des::Sim;
use faaspipe::store::{ObjectStore, StoreConfig, StoreError};

/// The operations the model covers: every request the pipelines issue.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    List(u8),
    Range(u8, u8, u8),
}

fn key(k: u8) -> String {
    format!("k/{:03}", k % 24)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), vec(any::<u8>(), 0..64)).prop_map(|(k, d)| Op::Put(k, d)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::List),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(k, o, l)| Op::Range(k, o, l)),
    ]
}

/// Observable outcome of one op, comparable across implementations.
/// A listing is `(key, len)` pairs: `len` is what the shuffle's input
/// assignment reads.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Bytes(Option<Vec<u8>>),
    Listing(Vec<(String, u64)>),
    Unit,
}

fn run_reference(ops: &[Op]) -> Vec<Observed> {
    let mut state: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        out.push(match op {
            Op::Put(k, d) => {
                state.insert(key(*k), d.clone());
                Observed::Unit
            }
            Op::Get(k) => Observed::Bytes(state.get(&key(*k)).cloned()),
            Op::List(prefix_k) => {
                let prefix = format!("k/{:01}", prefix_k % 10);
                Observed::Listing(
                    state
                        .iter()
                        .filter(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, d)| (k.clone(), d.len() as u64))
                        .collect(),
                )
            }
            Op::Range(k, off, len) => {
                let k = key(*k);
                match state.get(&k) {
                    None => Observed::Bytes(None),
                    Some(d) => {
                        let off = *off as usize;
                        let len = *len as usize;
                        if off + len <= d.len() {
                            Observed::Bytes(Some(d[off..off + len].to_vec()))
                        } else {
                            Observed::Bytes(None) // invalid range
                        }
                    }
                }
            }
        });
    }
    out
}

fn run_simulated(ops: Vec<Op>) -> Vec<Observed> {
    let mut sim = Sim::new();
    let store = ObjectStore::install(&mut sim, StoreConfig::default());
    store.create_bucket("b").expect("bucket");
    let out: Arc<Mutex<Vec<Observed>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let store2 = Arc::clone(&store);
    sim.spawn("model", move |mut ctx| async move {
        let ctx = &mut ctx;
        let c = store2.connect(ctx, "model").await;
        for op in &ops {
            let obs = match op {
                Op::Put(k, d) => {
                    c.put(ctx, "b", &key(*k), Bytes::from(d.clone()))
                        .await
                        .expect("put");
                    Observed::Unit
                }
                Op::Get(k) => match c.get(ctx, "b", &key(*k)).await {
                    Ok(d) => Observed::Bytes(Some(d.to_vec())),
                    Err(StoreError::NoSuchKey { .. }) => Observed::Bytes(None),
                    Err(e) => panic!("unexpected: {}", e),
                },
                Op::List(prefix_k) => {
                    let prefix = format!("k/{:01}", prefix_k % 10);
                    Observed::Listing(
                        c.list(ctx, "b", &prefix)
                            .await
                            .expect("list")
                            .into_iter()
                            .map(|o| (o.key, o.len.as_u64()))
                            .collect(),
                    )
                }
                Op::Range(k, off, len) => {
                    match c
                        .get_range(ctx, "b", &key(*k), *off as u64, *len as u64)
                        .await
                    {
                        Ok(d) => Observed::Bytes(Some(d.to_vec())),
                        Err(StoreError::NoSuchKey { .. })
                        | Err(StoreError::InvalidRange { .. }) => Observed::Bytes(None),
                        Err(e) => panic!("unexpected: {}", e),
                    }
                }
            };
            out2.lock().push(obs);
        }
    });
    sim.run().expect("sim ok");
    let v = out.lock().clone();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn store_agrees_with_reference_model(ops in vec(arb_op(), 1..60)) {
        let expected = run_reference(&ops);
        let actual = run_simulated(ops);
        prop_assert_eq!(actual, expected);
    }
}
