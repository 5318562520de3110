//! Model-based testing of the object store: a random sequence of
//! operations is applied both to the simulated store (inside a sim) and
//! to a plain `BTreeMap` reference model; every observable result must
//! agree.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::des::Sim;
use faaspipe::store::{ObjectStore, StoreConfig, StoreError};

/// The operations the model covers.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    PutIfAbsent(u8, Vec<u8>),
    Get(u8),
    Head(u8),
    Delete(u8),
    List(u8),
    Range(u8, u8, u8),
}

fn key(k: u8) -> String {
    format!("k/{:03}", k % 24)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), vec(any::<u8>(), 0..64)).prop_map(|(k, d)| Op::Put(k, d)),
        (any::<u8>(), vec(any::<u8>(), 0..64)).prop_map(|(k, d)| Op::PutIfAbsent(k, d)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Head),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::List),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(k, o, l)| Op::Range(k, o, l)),
    ]
}

/// Observable outcome of one op, comparable across implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Observed {
    Bytes(Option<Vec<u8>>),
    Exists(bool),
    Created(bool),
    Keys(Vec<String>),
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
            Op::PutIfAbsent(k, d) => {
                let k = key(*k);
                if let std::collections::btree_map::Entry::Vacant(e) = state.entry(k) {
                    e.insert(d.clone());
                    Observed::Created(true)
                } else {
                    Observed::Created(false)
                }
            }
            Op::Get(k) => Observed::Bytes(state.get(&key(*k)).cloned()),
            Op::Head(k) => Observed::Exists(state.contains_key(&key(*k))),
            Op::Delete(k) => {
                state.remove(&key(*k));
                Observed::Unit
            }
            Op::List(prefix_k) => {
                let prefix = format!("k/{:01}", prefix_k % 10);
                Observed::Keys(
                    state
                        .keys()
                        .filter(|k| k.starts_with(&prefix))
                        .cloned()
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
                Op::PutIfAbsent(k, d) => {
                    match c
                        .put_if_absent(ctx, "b", &key(*k), Bytes::from(d.clone()))
                        .await
                    {
                        Ok(_) => Observed::Created(true),
                        Err(StoreError::PreconditionFailed { .. }) => Observed::Created(false),
                        Err(e) => panic!("unexpected: {}", e),
                    }
                }
                Op::Get(k) => match c.get(ctx, "b", &key(*k)).await {
                    Ok(d) => Observed::Bytes(Some(d.to_vec())),
                    Err(StoreError::NoSuchKey { .. }) => Observed::Bytes(None),
                    Err(e) => panic!("unexpected: {}", e),
                },
                Op::Head(k) => Observed::Exists(c.exists(ctx, "b", &key(*k)).await.expect("head")),
                Op::Delete(k) => {
                    c.delete(ctx, "b", &key(*k)).await.expect("delete");
                    Observed::Unit
                }
                Op::List(prefix_k) => {
                    let prefix = format!("k/{:01}", prefix_k % 10);
                    Observed::Keys(
                        c.list(ctx, "b", &prefix)
                            .await
                            .expect("list")
                            .into_iter()
                            .map(|o| o.key)
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
