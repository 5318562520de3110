//! Property-based tests of the simulation kernel: clock monotonicity,
//! determinism, conservation in the fluid-flow network, and unit
//! arithmetic.

use std::sync::{Arc, Mutex};

use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::des::{Bandwidth, ByteSize, Money, Sim, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any set of sleeping processes finishes at exactly the max sleep,
    /// and every observed timestamp is monotone in the event order.
    #[test]
    fn clock_is_monotone_under_random_sleeps(delays in vec(0u64..10_000, 1..40)) {
        let observed = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        for (i, &ms) in delays.iter().enumerate() {
            let observed = Arc::clone(&observed);
            sim.spawn(format!("p{}", i), move |ctx| async move {
                ctx.sleep(SimDuration::from_millis(ms)).await;
                observed.lock().unwrap().push(ctx.now());
            });
        }
        let report = sim.run().expect("sim ok");
        let times = observed.lock().unwrap().clone();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "monotone wakeups");
        let max = delays.iter().copied().max().expect("non-empty");
        prop_assert_eq!(report.end_time, SimTime::ZERO + SimDuration::from_millis(max));
    }

    /// Two runs of the same random workload produce identical traces.
    #[test]
    fn simulations_are_deterministic(delays in vec(0u64..5_000, 1..24)) {
        fn trace(delays: &[u64]) -> Vec<(usize, u64)> {
            let observed = Arc::new(Mutex::new(Vec::new()));
            let mut sim = Sim::new();
            for (i, &ms) in delays.iter().enumerate() {
                let observed = Arc::clone(&observed);
                sim.spawn(format!("p{}", i), move |ctx| async move {
                    ctx.sleep(SimDuration::from_millis(ms % 97)).await;
                    ctx.sleep(SimDuration::from_millis(ms % 13)).await;
                    observed.lock().unwrap().push((i, ctx.now().as_nanos()));
                });
            }
            sim.run().expect("sim ok");
            let t = observed.lock().unwrap().clone();
            t
        }
        prop_assert_eq!(trace(&delays), trace(&delays));
    }

    /// A shared link is work-conserving: n equal transfers through one
    /// link finish in exactly n times the single-transfer duration, and
    /// never faster than bytes/capacity.
    #[test]
    fn fair_sharing_conserves_work(n in 1usize..12, kib in 1u64..256) {
        let mut sim = Sim::new();
        let link = sim.create_link(Bandwidth::bytes_per_sec(1_000_000.0));
        for i in 0..n {
            sim.spawn(format!("t{}", i), move |ctx| async move {
                ctx.transfer(ByteSize::kib(kib), &[link]).await;
            });
        }
        let report = sim.run().expect("sim ok");
        let expected = (n as f64 * kib as f64 * 1024.0) / 1_000_000.0;
        let got = report.end_time.as_secs_f64();
        prop_assert!((got - expected).abs() < expected * 1e-6 + 1e-6,
            "{} transfers of {} KiB: got {}, expected {}", n, kib, got, expected);
    }

    /// FIFO semaphores serialize a critical section: with one permit the
    /// k-th entrant starts exactly k hold-times in.
    #[test]
    fn semaphore_is_fair_and_exact(n in 1usize..16, hold_ms in 1u64..500) {
        let entries = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new();
        let sem = sim.create_semaphore(1);
        for i in 0..n {
            let entries = Arc::clone(&entries);
            sim.spawn(format!("w{}", i), move |ctx| async move {
                ctx.sem_acquire(sem, 1).await;
                entries.lock().unwrap().push((i, ctx.now().as_nanos()));
                ctx.sleep(SimDuration::from_millis(hold_ms)).await;
                ctx.sem_release(sem, 1).await;
            });
        }
        sim.run().expect("sim ok");
        let entries = entries.lock().unwrap().clone();
        for (k, &(who, at)) in entries.iter().enumerate() {
            prop_assert_eq!(who, k, "FIFO order");
            prop_assert_eq!(at, k as u64 * hold_ms * 1_000_000, "exact spacing");
        }
    }

    /// Money arithmetic is exact and associative over micro-dollars.
    #[test]
    fn money_is_exact(amounts in vec(-1_000_000i64..1_000_000, 0..64)) {
        let sum_micros: i64 = amounts.iter().sum();
        let total: Money = amounts.iter().map(|&a| Money::from_micros(a)).sum();
        prop_assert_eq!(total.as_micros(), sum_micros);
        // Display/parse sanity: dollars round-trip through from_dollars.
        let again = Money::from_dollars(total.as_dollars());
        prop_assert_eq!(again, total);
    }

    /// Durations: saturating ops never panic and ordering matches nanos.
    #[test]
    fn duration_ordering_matches_nanos(a in any::<u64>(), b in any::<u64>()) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!(da < db, a < b);
        prop_assert_eq!(da.saturating_add(db).as_nanos(), a.saturating_add(b));
        prop_assert_eq!(da.max(db).as_nanos(), a.max(b));
    }
}

/// Rate limiter: k ops at rate r take exactly (k - burst)/r seconds
/// beyond the burst.
#[test]
fn limiter_long_run_rate_is_exact() {
    let mut sim = Sim::new();
    let lim = sim.create_limiter(100.0, 10.0);
    sim.spawn("client", move |ctx| async move {
        for _ in 0..510 {
            ctx.limiter_acquire(lim, 1.0).await;
        }
    });
    let report = sim.run().expect("sim ok");
    // 510 ops: 10 ride the initial burst, 500 at 100/s => 5 s.
    assert!((report.end_time.as_secs_f64() - 5.0).abs() < 1e-3);
}
