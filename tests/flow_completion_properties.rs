//! Property tests pinning the flow network's rates and its incremental
//! earliest-completion index to reference implementations.
//!
//! [`FlowNet::next_completion`] answers the scheduler's "when does the
//! next transfer finish?" in O(1) by folding each flow's completion
//! deadline into a maintained minimum during `recompute`.
//! [`FlowNet::next_completion_reference`] is the original O(flows) scan,
//! kept as the oracle. The rates themselves are solved lazily, once per
//! burst of changes, only over the flows a change can reach, with lazily
//! refreshed bottleneck keys; [`dense_rates`] below is the dense
//! progressive filling over every flow and link they must equal bit for
//! bit. These tests drive random interleavings of flow starts (zero-byte
//! ones and same-instant bursts among them), arbitrary-time ticks, and
//! scheduler-style advance-to-completion ticks over random topologies,
//! asserting agreement after every operation and across a full drain to
//! quiescence.

use proptest::collection::vec;
use proptest::prelude::*;

use faaspipe::des::flow::FlowNet;
use faaspipe::des::{Bandwidth, ByteSize, FlowSpec, LinkId, SimDuration, SimTime};

// Ops are `(kind, bytes, link-bits, dt)` tuples: kind 0 starts a flow,
// kind 1 advances an arbitrary `dt` and ticks, kind 2 advances exactly
// to the predicted completion and ticks (the scheduler's own pattern,
// which exercises the O(1) fast path at the same timestamp as the
// preceding settle), kind 3 starts a zero-byte flow, and kind 4 starts a
// burst of flows at one instant with a same-instant tick in the middle,
// so several starts and finishes share one rate solve.

/// Indices (into a topology of `n` links) of the links a flow crosses.
fn non_empty_subset(n: usize, bits: u8) -> Vec<usize> {
    let picked: Vec<usize> = (0..n).filter(|&i| (bits >> (i % 8)) & 1 == 1).collect();
    if picked.is_empty() {
        vec![bits as usize % n]
    } else {
        picked
    }
}

/// Max-min fair rates by dense progressive filling, the reference the
/// flow network must match bit for bit. `caps[l]` is link `l`'s capacity
/// in bytes/sec, with links indexed in creation (= id) order; `flows`
/// lists each active flow's link indices, in ascending slot order. Each
/// round scans every link for the smallest live share `residual/count`
/// (ties go to the lowest link id) and freezes the unfrozen flows
/// crossing it at that share, in slot order; flows that cross only
/// infinite-capacity links never freeze and run at an infinite rate.
fn dense_rates(caps: &[f64], flows: &[&[usize]]) -> Vec<f64> {
    let mut counts = vec![0u32; caps.len()];
    let mut residual = caps.to_vec();
    for links in flows {
        for &l in links.iter() {
            counts[l] += 1;
        }
    }
    let mut rates = vec![f64::INFINITY; flows.len()];
    let mut unfrozen: Vec<usize> = (0..flows.len()).collect();
    loop {
        let mut bottleneck: Option<(usize, f64)> = None;
        for (l, &cap) in caps.iter().enumerate() {
            if counts[l] == 0 || cap.is_infinite() {
                continue;
            }
            let share = residual[l] / counts[l] as f64;
            if bottleneck.is_none_or(|(_, s)| share < s) {
                bottleneck = Some((l, share));
            }
        }
        let Some((bl, share)) = bottleneck else {
            return rates;
        };
        let share = share.max(0.0);
        unfrozen.retain(|&fi| {
            if !flows[fi].contains(&bl) {
                return true;
            }
            rates[fi] = share;
            for &l in flows[fi] {
                residual[l] = (residual[l] - share).max(0.0);
                counts[l] -= 1;
            }
            false
        });
    }
}

/// Test harness over a [`FlowNet`]: remembers each flow's link indices by
/// waker (wakers are handed out in start order) so the dense reference
/// can be rebuilt from the network's own slot order.
struct Harness {
    net: FlowNet,
    links: Vec<LinkId>,
    caps: Vec<f64>,
    flow_links: Vec<Vec<usize>>,
}

impl Harness {
    fn new(caps: impl IntoIterator<Item = Bandwidth>) -> Self {
        let mut h = Harness {
            net: FlowNet::new(),
            links: Vec::new(),
            caps: Vec::new(),
            flow_links: Vec::new(),
        };
        for cap in caps {
            h.add_link(cap);
        }
        h
    }

    /// Adds a link and returns its index.
    fn add_link(&mut self, cap: Bandwidth) -> usize {
        self.links.push(self.net.add_link(cap));
        self.caps.push(cap.as_bytes_per_sec());
        self.links.len() - 1
    }

    fn start(&mut self, now: SimTime, bytes: u64, link_idx: Vec<usize>) {
        let spec = FlowSpec {
            bytes: ByteSize::new(bytes),
            links: link_idx.iter().map(|&i| self.links[i]).collect(),
        };
        self.net.start(now, spec, self.flow_links.len() as u32);
        self.flow_links.push(link_idx);
    }

    /// Active flows whose rate differs from the dense reference's in any
    /// bit, as `(waker, rate, reference rate)`.
    fn rate_mismatches(&mut self) -> Vec<(u32, f64, f64)> {
        let live: Vec<(u32, f64)> = self.net.flow_rates().collect();
        let flows: Vec<&[usize]> = live
            .iter()
            .map(|&(w, _)| self.flow_links[w as usize].as_slice())
            .collect();
        let want = dense_rates(&self.caps, &flows);
        live.iter()
            .zip(want)
            .filter(|&(&(_, got), want)| got.to_bits() != want.to_bits())
            .map(|(&(w, got), want)| (w, got, want))
            .collect()
    }
}

/// After one op: every active flow's rate equals the dense reference's
/// bit for bit, and the completion index equals the reference scan.
fn check_op(
    h: &mut Harness,
    now: SimTime,
    op: (u8, u64, impl std::fmt::Debug, u64),
) -> Result<(), TestCaseError> {
    let bad = h.rate_mismatches();
    prop_assert!(
        bad.is_empty(),
        "rates diverged from dense reference after op {:?}: {:?}",
        op,
        bad
    );
    prop_assert_eq!(
        h.net.next_completion(now),
        h.net.next_completion_reference(now),
        "index diverged from reference after op {:?}",
        op
    );
    Ok(())
}

/// Drains exactly as the scheduler does — jump to each predicted
/// completion and tick there until the network is quiet — checking rates
/// and the completion index at every step.
fn drain_checked(h: &mut Harness, mut now: SimTime) -> Result<(), TestCaseError> {
    let mut woken = Vec::new();
    let mut rounds = 0usize;
    while let Some(t) = h.net.next_completion(now) {
        prop_assert_eq!(Some(t), h.net.next_completion_reference(now));
        now = t;
        h.net.tick(now, &mut woken);
        let bad = h.rate_mismatches();
        prop_assert!(
            bad.is_empty(),
            "rates diverged from dense reference during drain: {:?}",
            bad
        );
        prop_assert_eq!(
            h.net.next_completion(now),
            h.net.next_completion_reference(now),
            "index diverged from reference during drain"
        );
        rounds += 1;
        prop_assert!(rounds < 10_000, "drain did not converge");
    }
    prop_assert_eq!(h.net.active_flows(), 0, "drain left active flows");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every start/tick — and at every step of a drain to
    /// quiescence — the incremental index and the reference scan return
    /// the same completion instant, and every active flow's rate equals
    /// the dense reference's bit for bit.
    #[test]
    fn incremental_next_completion_matches_reference_scan(
        caps in vec(1u64..=4096, 1..6),
        ops in vec((0u8..5, 1u64..=1 << 28, any::<u8>(), 1u64..50_000_000), 1..80),
    ) {
        // One infinite-capacity link so some subsets yield unbounded
        // (immediately-completing) flows — the ZERO-delay edge case.
        let mut h = Harness::new(
            caps.iter()
                .map(|&c| Bandwidth::mib_per_sec(c as f64 / 16.0))
                .chain([Bandwidth::UNLIMITED]),
        );
        let n = h.links.len();

        let mut now = SimTime::ZERO;
        let mut woken = Vec::new();
        for &(kind, bytes, bits, dt) in &ops {
            match kind {
                0 => h.start(now, bytes, non_empty_subset(n, bits)),
                1 => {
                    now = now.saturating_add(SimDuration::from_nanos(dt));
                    h.net.tick(now, &mut woken);
                }
                2 => {
                    if let Some(t) = h.net.next_completion(now) {
                        now = t;
                        h.net.tick(now, &mut woken);
                    }
                }
                3 => h.start(now, 0, non_empty_subset(n, bits)),
                _ => {
                    // Up to 16 starts at `now`, every third one zero-byte,
                    // some crossing their first link twice, with a tick at
                    // the same instant halfway through.
                    let burst = 2 + (dt % 15) as usize;
                    for j in 0..burst {
                        let mut idx = non_empty_subset(n, bits.rotate_left(j as u32));
                        if j % 4 == 1 {
                            idx.push(idx[0]);
                        }
                        let b = if j % 3 == 0 { 0 } else { bytes >> j };
                        h.start(now, b, idx);
                        if j == burst / 2 {
                            h.net.tick(now, &mut woken);
                        }
                    }
                }
            }
            check_op(&mut h, now, (kind, bytes, bits, dt))?;
        }
        drain_checked(&mut h, now)?;
    }

    /// Cloud-shaped topologies, where most changes reach only a few
    /// flows: a NIC per function, optional relay links, a fresh
    /// connection link per flow, an UNLIMITED link, and a store backbone
    /// of `k` NICs' worth of capacity give or take up to 1 B/s, so the
    /// backbone flips between slack and binding as flows come and go.
    /// Capacities have fractional bytes/sec, so the cover's rounding and
    /// the slack margin are exercised at the boundary. Rates stay bit-equal
    /// to the dense reference and the completion index to the reference
    /// scan, after every op and through the drain.
    #[test]
    fn cloud_shaped_rates_match_dense_reference(
        nic_eighths in 64u64..=8192,
        functions in 1usize..=6,
        k in 0usize..6,
        offset_eighths in -8i64..=8,
        relay_eighths in vec(64u64..=8192, 0..=2),
        ops in vec((0u8..5, 1u64..=1 << 22, any::<u16>(), 1u64..50_000_000), 1..100),
    ) {
        let nic_cap = nic_eighths as f64 / 8.0;
        let k = 1 + k % functions;
        let backbone_cap = k as f64 * nic_cap + offset_eighths as f64 / 8.0;
        let mut h = Harness::new([Bandwidth::bytes_per_sec(backbone_cap), Bandwidth::UNLIMITED]);
        let (backbone, unlimited) = (0, 1);
        let nics: Vec<usize> = (0..functions)
            .map(|_| h.add_link(Bandwidth::bytes_per_sec(nic_cap)))
            .collect();
        let relays: Vec<usize> = relay_eighths
            .iter()
            .map(|&q| h.add_link(Bandwidth::bytes_per_sec(q as f64 / 8.0)))
            .collect();

        // A flow as the store issues it: a fresh connection (usually
        // faster than the NIC), the backbone, then the issuing function's
        // NIC and maybe a relay. Bits also pick an UNLIMITED hop, a
        // duplicated NIC or backbone entry, or a backbone-only copy.
        const CONN_PER_NIC: [f64; 8] = [0.5, 0.875, 1.5, 2.0, 3.0, 4.0, 4.0, 8.0];
        let flow_links = |h: &mut Harness, bits: u16| -> Vec<usize> {
            if bits & 0xF == 0xF {
                return vec![backbone];
            }
            let conn_cap = nic_cap * CONN_PER_NIC[(bits >> 9) as usize & 7];
            let conn = h.add_link(Bandwidth::bytes_per_sec(conn_cap));
            let nic = nics[(bits >> 4) as usize % nics.len()];
            let mut idx = vec![conn, backbone, nic];
            if bits & 0x300 == 0x300 && !relays.is_empty() {
                idx.push(relays[(bits >> 12) as usize % relays.len()]);
            }
            if bits & 0xC0 == 0xC0 {
                idx.push(unlimited);
            }
            match bits >> 13 {
                0 => idx.push(nic),
                1 => idx.insert(1, backbone),
                _ => {}
            }
            idx
        };

        let mut now = SimTime::ZERO;
        let mut woken = Vec::new();
        for &(kind, bytes, bits, dt) in &ops {
            match kind {
                0 => {
                    let idx = flow_links(&mut h, bits);
                    h.start(now, bytes, idx);
                }
                1 => {
                    now = now.saturating_add(SimDuration::from_nanos(dt));
                    h.net.tick(now, &mut woken);
                }
                2 => {
                    if let Some(t) = h.net.next_completion(now) {
                        now = t;
                        h.net.tick(now, &mut woken);
                    }
                }
                3 => {
                    let idx = flow_links(&mut h, bits);
                    h.start(now, 0, idx);
                }
                _ => {
                    // A wave of starts at `now`, every fourth one
                    // zero-byte, with a same-instant tick halfway through.
                    let burst = 2 + (dt % 5) as usize;
                    for j in 0..burst {
                        let idx = flow_links(&mut h, bits.rotate_left(j as u32 * 5));
                        let b = if j % 4 == 3 { 0 } else { bytes >> j };
                        h.start(now, b, idx);
                        if j == burst / 2 {
                            h.net.tick(now, &mut woken);
                        }
                    }
                }
            }
            check_op(&mut h, now, (kind, bytes, bits, dt))?;
        }
        drain_checked(&mut h, now)?;
    }

    /// Probing at a timestamp *between* events (where the cached minimum
    /// is measured from an older settle instant) must also agree with
    /// the scan — this exercises the fallback path's equivalence.
    #[test]
    fn off_schedule_probes_match_reference_scan(
        caps in vec(1u64..=1024, 1..4),
        starts in vec((1u64..=1 << 24, any::<u8>()), 1..20),
        probe_ns in vec(1u64..10_000_000, 1..20),
    ) {
        let mut h = Harness::new(caps.iter().map(|&c| Bandwidth::mib_per_sec(c as f64)));
        let n = h.links.len();
        let mut now = SimTime::ZERO;
        for &(bytes, bits) in &starts {
            h.start(now, bytes, non_empty_subset(n, bits));
        }
        for &ns in &probe_ns {
            let probe = now.saturating_add(SimDuration::from_nanos(ns));
            prop_assert_eq!(
                h.net.next_completion(probe),
                h.net.next_completion_reference(probe),
                "off-schedule probe diverged"
            );
        }
        let mut woken = Vec::new();
        let mut rounds = 0usize;
        while let Some(t) = h.net.next_completion(now) {
            now = t;
            h.net.tick(now, &mut woken);
            rounds += 1;
            prop_assert!(rounds < 10_000, "drain did not converge");
        }
        prop_assert_eq!(h.net.active_flows(), 0);
    }
}
