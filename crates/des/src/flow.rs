//! Max-min fair fluid-flow network.
//!
//! Data transfers in the simulated cloud are modelled as *fluid flows*: a
//! flow has a byte count and traverses a set of capacity-constrained links
//! (e.g. a function's NIC, the object store's per-connection cap, the
//! store's aggregate backbone). At any instant each flow progresses at its
//! **max-min fair** rate given all concurrently active flows; rates are
//! solved by progressive filling (water-filling) whenever a query needs
//! them after flows started or finished.
//!
//! This is what makes "the huge aggregated bandwidth of object storage" —
//! the paper's central performance argument — an emergent, measurable
//! property of the simulation: adding more functions adds more NIC links,
//! and aggregate throughput grows until the store's backbone saturates.
//!
//! # Scaling discipline
//!
//! `start` and `tick` only mark the rates stale; every query that reads
//! rates (`next_completion`, `next_completion_reference`, `link_rate`,
//! `take_stalled`, `flow_rates`, and any `settle` that advances time)
//! solves them first if they are stale. Rates depend only on the active
//! flows and the link capacities, so a burst of starts and finishes at
//! one virtual instant costs one solve, and every call sequence observes
//! exactly the rates it would if each change had re-solved at once. The
//! scheduler asks once per instant: it defers its query past the
//! instant's other events unless a flow can finish at that very instant
//! (see `FlowNet::may_complete_now`).
//!
//! A solve re-runs progressive filling only over the flows a change can
//! reach, and never queues a link that cannot bind:
//!
//! * **Slack links.** Each flow `f` can push at most `c_f(l)` through
//!   link `l`: its tightest *other* finite capacity. A finite link whose
//!   members' cover `Σ c_f(l)` (one term per occurrence in a flow's link
//!   list) stays below `cap·(1 − SLACK_MARGIN)` is *slack*; a member
//!   with no other finite link makes it non-slack, and an infinite link
//!   is always slack. A slack link never binds: at round `r` its
//!   unfrozen members all end at rates ≥ the bottleneck share `s_r`, the
//!   final rates are feasible so all members together use at most the
//!   cover, and so its live share is at least
//!   `s_r + (cap − cover)/n_l(r) > s_r`. The margin absorbs the float
//!   rounding of the real solve. The cover is kept per link in whole
//!   bytes/s rounded up (exact integers, so it never drifts), and slack
//!   status depends only on membership, so only links whose membership
//!   changed are re-tested.
//! * **Components.** With slack links removed the flows fall into
//!   components, and progressive filling solves each one independently
//!   bit for bit: a component's links only see freezes of its own flows,
//!   in the same `(share, link creation order)` order and ascending slot
//!   order as one global solve.
//! * **The region.** `start`/`tick` record the started flows and the
//!   links whose membership changed. A solve seeds its region with the
//!   started flows and the members of every changed link that binds now
//!   or did before, closes it over binding links, and fills only the
//!   region's links and flows; every other flow keeps its rate. While the
//!   store backbone cannot fill, a finishing transfer re-solves only the
//!   flows sharing its NIC or connection; once it binds, the region is
//!   every flow crossing it.
//!
//! Inside the region, with `A` flows and `T` binding links, the filling
//! costs `O((A·ℓ + T) log T)` (ℓ = links per flow, a small constant),
//! plus one pass over every active flow for the deadlines:
//!
//! * per-link **membership lists** (`members`) let each progressive-filling
//!   round freeze exactly the flows crossing the bottleneck instead of
//!   re-scanning every unfrozen flow;
//! * the bottleneck itself comes from a min-heap of `(fair share, link
//!   creation order)` keys, built in one heapify, instead of a scan over
//!   every link per round. Keys are **lazy lower bounds**: freezing flows
//!   at the minimum share never lowers another link's share in exact
//!   arithmetic, so a freeze queues a link's new share only when rounding
//!   pushed it below the link's lowest queued key (`low`); a popped key
//!   that no longer matches its link's live share is re-queued at the
//!   live value if it is that lowest key, and dropped otherwise;
//! * every solve ends with one pass over all active flows that keeps
//!   the smallest drain time `remaining / rate` and converts it to a
//!   delay once, so the scheduler's `next_completion` query is O(1)
//!   instead of a scan over all flows. A flow's delay is `D(remaining /
//!   rate)` with `D(q) = ceil(q · 1e9)` ns + 1, saturating; IEEE
//!   rounding, `ceil`, the cast and the saturating add are all monotone
//!   non-decreasing, so `D(min q)` is the minimum of the per-flow delays
//!   (the per-flow form stays as `next_completion_reference`, the
//!   oracle). A flow that can finish now short-circuits the pass to
//!   zero, and starved flows (rate ≤ 0) are left out. `settle` moves
//!   every flow's remaining bytes, so every deadline is re-derived,
//!   landing on the nanosecond a full solve gives;
//! * `settle`, `tick` and `link_rate` walk the active-flow / member lists,
//!   not every slot ever allocated.
//!
//! # Released links
//!
//! A link held for part of a run (a store connection's cap, made through
//! [`Ctx::link_create_owned`](crate::Ctx::link_create_owned)) is released
//! when its owner drops it, and its slot is reused once no flow crosses it
//! and no pending solve has it in `changed`. The link tables and the
//! solver's link-indexed scratch therefore size to the most links live at
//! once, not to every link ever made. A reused slot holds a later link
//! than its id suggests, so ties between equal shares break by each link's
//! creation order (its rank), never by its id.
//!
//! All of it is bit-identity-preserving. Every live link always has a
//! queued key no larger than its live share, so the first popped key that
//! equals its link's live `residual/count` is the same `(share, link
//! creation order)` minimum the dense scan picks; freezing walks members in
//! ascending slot order (the dense scan's flow order); and the accepted
//! share is re-derived from the live `residual/count` at pop time, so
//! every floating-point operation happens on the same operands in the
//! same order as the reference implementation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::inline::InlineList;
use crate::units::{Bandwidth, ByteSize, SimDuration, SimTime};

/// Identifies a capacity-constrained link in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) u32);

/// Identifies an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(usize);

/// The links of one transfer. The transfers the workspace models cross
/// at most three (a store connection, the backbone and the caller's
/// NIC), so up to four are held inline and a transfer allocates
/// nothing; a longer list moves to the heap.
pub type FlowLinks = InlineList<LinkId, 4>;

/// Description of a transfer: how many bytes, across which links.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Total bytes the flow must move.
    pub bytes: ByteSize,
    /// Every link the flow traverses; its rate is bounded by each of them.
    pub links: FlowLinks,
}

impl FlowSpec {
    /// A transfer of `bytes` across `links`.
    pub fn new(bytes: ByteSize, links: &[LinkId]) -> FlowSpec {
        FlowSpec {
            bytes,
            links: links.into(),
        }
    }
}

/// The flow slots crossing one link, ascending. A per-connection link
/// carries one flow at a time and stays inline; a busy link (a NIC under
/// a wide I/O window, the store backbone) spills to the heap once.
type Members = InlineList<u32, 3>;

#[derive(Debug)]
struct Link {
    capacity: f64, // bytes/sec, may be infinite
    /// Creation order: the `n`-th link added to the network has rank `n`.
    /// A reused slot holds a later link than its id suggests, so ties
    /// between equal shares break by rank, not by id.
    rank: u32,
    /// Σ over member occurrences of [`cover_of`]: an exact integer bound,
    /// in bytes/sec, on what the members can ever push through the link.
    cover: u128,
    /// Member occurrences with no [`cover_of`] bound.
    uncovered: u32,
    /// Whether the link was non-slack when its membership was last
    /// tested; current for every link not in `FlowNet::changed`.
    binds: bool,
    /// Whether the link is queued in `FlowNet::changed`.
    changed: bool,
}

impl Link {
    /// Whether the members can never fill the link, so it never binds
    /// (see the module docs).
    fn slack(&self) -> bool {
        self.capacity.is_infinite()
            || (self.uncovered == 0 && (self.cover as f64) < self.capacity * (1.0 - SLACK_MARGIN))
    }
}

#[derive(Debug)]
struct Flow {
    remaining: f64, // bytes
    links: FlowLinks,
    waker: u32, // process slot to resume on completion
    rate: f64,  // current fair-share rate, bytes/sec
}

/// Bytes of slack under which a flow counts as complete (guards float
/// round-off in settle arithmetic).
const EPSILON_BYTES: f64 = 1e-6;

/// Relative headroom a link's cover must leave below its capacity for
/// the link to count as slack; it absorbs the float rounding by which a
/// real solve's residuals and shares stray from exact arithmetic.
const SLACK_MARGIN: f64 = 1e-9;

/// The most a flow crossing `flow_links` can push through one occurrence
/// of link `l`, in whole bytes/sec rounded up: its tightest capacity
/// among its *other* finite links. `None` when it has no such link, or
/// one too large to count exactly, so only `l` itself bounds it.
fn cover_of(links: &[Link], flow_links: &[LinkId], l: LinkId) -> Option<u64> {
    let tightest = flow_links
        .iter()
        .filter(|&&o| o != l)
        .map(|o| links[o.0 as usize].capacity)
        .fold(f64::INFINITY, f64::min)
        .ceil();
    // `u64::MAX as f64` is 2^64, so anything below it converts exactly.
    (tightest < u64::MAX as f64).then_some(tightest as u64)
}

/// Min-heap key for the bottleneck search. Orders by fair share first and
/// link creation order (`rank`) second, which is exactly the dense scan's
/// tie-break (`s <= share` kept the incumbent, and the incumbent was the
/// earliest-created link because the scan ran in creation order). Shares
/// are never NaN — residuals are clamped non-negative and counts are
/// positive — so the partial order is total here.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareKey {
    share: f64,
    rank: u32,
    li: u32,
}

impl Eq for ShareKey {}

impl PartialOrd for ShareKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShareKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.share
            .partial_cmp(&other.share)
            .expect("fair shares are never NaN")
            .then(self.rank.cmp(&other.rank))
    }
}

/// The fluid-flow network. Owned by the simulation scheduler; processes
/// interact with it through [`Ctx::transfer`](crate::Ctx::transfer).
#[derive(Debug, Default)]
pub struct FlowNet {
    /// Link slots: as many as were ever live at once.
    links: Vec<Link>,
    /// Rank of the next link added.
    next_rank: u32,
    /// Slots of released links that no flow or pending solve refers to;
    /// the next `add_link` takes the last one.
    free_links: Vec<u32>,
    /// Released links still crossed by a flow or queued in `changed`;
    /// each solve frees those no flow crosses any more.
    retired: Vec<u32>,
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
    last_settle: SimTime,
    /// Occupied flow slots, ascending. Settle/tick/recompute walk this
    /// instead of every slot ever allocated.
    active: Vec<u32>,
    /// Per-link membership: active flow slots crossing the link, ascending
    /// (one entry per occurrence in the flow's link list, mirroring the
    /// dense scan's per-occurrence counts).
    members: Vec<Members>,
    /// Links whose membership changed since the last solve.
    changed: Vec<u32>,
    /// Flows started since the last solve.
    started: Vec<u32>,
    /// Earliest completion delay among active flows, measured from
    /// `last_settle`; valid only while `earliest_fresh` (i.e. a recompute
    /// ran after the last settling advance). Stalled flows (rate ≤ 0) are
    /// excluded, exactly as the reference scan excludes them.
    earliest: Option<SimDuration>,
    earliest_fresh: bool,
    /// Whether a flow started or finished since the last recompute, so
    /// rates, `earliest` and `stalled` must be solved again before use.
    stale: bool,
    /// Upper bound on the active flows that can complete at `last_settle`
    /// without time passing: those with `EPSILON_BYTES` or fewer left and
    /// those crossing only infinite-capacity links. Never an under-count.
    finishing: usize,
    /// Wakers of flows frozen at a non-positive rate with bytes still
    /// remaining during the last recompute. A non-empty list means the
    /// rate computation starved a flow that can never finish.
    stalled: Vec<u32>,
    scratch: RecomputeScratch,
}

/// Scratch reused across calls so the hot path does no per-event
/// allocation. `counts`, `residual` and `low` are link-indexed and only
/// the entries of the region's links are ever initialised or read before
/// being written; `low[l]` is the smallest share key queued for link
/// `l`. `counts` is zero on every link between solves (each member of a
/// region link freezes), so inside a solve a non-zero count marks a link
/// already in the region. `queued_at` and `frozen_at` are slot-indexed
/// and compared against `epoch`.
#[derive(Debug, Default)]
struct RecomputeScratch {
    counts: Vec<u32>,
    residual: Vec<f64>,
    low: Vec<f64>,
    heap: BinaryHeap<Reverse<ShareKey>>,
    queued_at: Vec<u64>,
    frozen_at: Vec<u64>,
    epoch: u64,
    /// The flow slots the last solve re-solved, in the order they joined.
    region: Vec<u32>,
    done: Vec<usize>,
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNet::default()
    }

    /// Adds a link with the given capacity and returns its id: the slot
    /// of a released link if one is free.
    pub fn add_link(&mut self, capacity: Bandwidth) -> LinkId {
        let link = Link {
            capacity: capacity.as_bytes_per_sec(),
            rank: self.next_rank,
            cover: 0,
            uncovered: 0,
            binds: false,
            changed: false,
        };
        self.next_rank = self.next_rank.checked_add(1).expect("link ranks exhausted");
        match self.free_links.pop() {
            Some(li) => {
                debug_assert!(self.members[li as usize].is_empty());
                self.links[li as usize] = link;
                LinkId(li)
            }
            None => {
                self.links.push(link);
                self.members.push(Members::new());
                LinkId(self.links.len() as u32 - 1)
            }
        }
    }

    /// Releases `link`: no flow may start across it any more, and its
    /// slot is reused once no flow crosses it and no pending solve refers
    /// to it. Changes no rate.
    pub fn release_link(&mut self, link: LinkId) {
        let li = link.0 as usize;
        if self.members[li].is_empty() && !self.links[li].changed {
            self.free_links.push(link.0);
        } else {
            self.retired.push(link.0);
        }
    }

    /// Number of flows currently in progress.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// The instantaneous aggregate rate through `link`, in bytes/sec.
    /// Useful for instrumentation (e.g. the aggregate-bandwidth experiment).
    pub fn link_rate(&mut self, link: LinkId) -> f64 {
        self.refresh();
        let Some(members) = self.members.get(link.0 as usize) else {
            return 0.0;
        };
        // A flow listing the link twice appears twice in `members`
        // (adjacent, since the list is slot-sorted) but must count once.
        let mut sum = 0.0;
        let mut last = None;
        for &fi in members.iter() {
            if last == Some(fi) {
                continue;
            }
            last = Some(fi);
            sum += self.flows[fi as usize]
                .as_ref()
                .expect("member flow is active")
                .rate;
        }
        sum
    }

    /// The current rate of every active flow as `(waker, bytes/sec)`, in
    /// ascending slot order (the order progressive filling freezes them).
    pub fn flow_rates(&mut self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.refresh();
        self.active.iter().map(|&fi| {
            let f = self.flows[fi as usize].as_ref().expect("active flow");
            (f.waker, f.rate)
        })
    }

    /// Wakers of flows starved by the current rates (frozen at a
    /// non-positive rate with bytes still to move). Such a flow can never
    /// complete unless a competing flow finishes first; the scheduler
    /// surfaces it as a loud error instead of deadlocking silently.
    pub fn take_stalled(&mut self) -> Option<u32> {
        self.refresh();
        self.stalled.pop()
    }

    /// Whether an active flow may complete at the instant of the latest
    /// start or tick without more time passing: one with `EPSILON_BYTES`
    /// or fewer left, or one crossing only infinite-capacity links. It
    /// may answer `true` spuriously but never `false` wrongly, so while it
    /// is `false` [`FlowNet::next_completion`] lies strictly in the future
    /// and a scheduler may defer asking until that instant's other events
    /// have run.
    pub(crate) fn may_complete_now(&self) -> bool {
        self.finishing > 0
    }

    /// Starts a new flow owned by process `waker`. Rates are solved
    /// lazily: the next query (e.g. [`FlowNet::next_completion`]) sees
    /// them with this flow included.
    ///
    /// # Panics
    /// Panics if the spec references an unknown link.
    pub fn start(&mut self, now: SimTime, spec: FlowSpec, waker: u32) -> FlowKey {
        for l in &spec.links {
            assert!(
                (l.0 as usize) < self.links.len(),
                "flow references unknown link {:?}",
                l
            );
        }
        self.settle(now);
        let remaining = spec.bytes.as_f64();
        if remaining <= EPSILON_BYTES
            || spec
                .links
                .iter()
                .all(|l| self.links[l.0 as usize].capacity.is_infinite())
        {
            self.finishing += 1;
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.flows.push(None);
                self.flows.len() - 1
            }
        };
        let slot = i as u32;
        let pos = self.active.partition_point(|&a| a < slot);
        self.active.insert(pos, slot);
        for &l in &spec.links {
            let members = &mut self.members[l.0 as usize];
            let mpos = members.partition_point(|&m| m < slot);
            members.insert(mpos, slot);
            self.update_cover(&spec.links, l, true);
        }
        self.flows[i] = Some(Flow {
            remaining,
            links: spec.links,
            waker,
            rate: 0.0,
        });
        self.started.push(slot);
        self.stale = true;
        FlowKey(i)
    }

    /// Advances flow progress to `now`, removes completed flows, and
    /// appends the process indices to resume to `woken` (cleared first,
    /// in deterministic flow order). The caller owns the buffer so the
    /// per-tick allocation can be amortised away.
    pub fn tick(&mut self, now: SimTime, woken: &mut Vec<u32>) {
        self.refresh();
        self.settle(now);
        // Every flow that can complete at `now` completes here.
        self.finishing = 0;
        woken.clear();
        let done = &mut self.scratch.done;
        done.clear();
        for &fi in &self.active {
            let f = self.flows[fi as usize].as_ref().expect("active flow");
            if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                done.push(fi as usize);
            }
        }
        if done.is_empty() {
            return;
        }
        // `done` is ascending, so wakers and the free list fill in the
        // same order the dense slot scan produced.
        for k in 0..self.scratch.done.len() {
            let i = self.scratch.done[k];
            let f = self.flows[i].take().expect("completed flow");
            woken.push(f.waker);
            // A flow listing a link twice has two adjacent entries there;
            // each occurrence removes one.
            for &l in &f.links {
                let members = &mut self.members[l.0 as usize];
                let mpos = members
                    .binary_search(&(i as u32))
                    .expect("completed flow is a member");
                members.remove(mpos);
                self.update_cover(&f.links, l, false);
            }
            self.free.push(i);
        }
        self.active.retain(|&fi| self.flows[fi as usize].is_some());
        self.stale = true;
    }

    /// When the earliest active flow will complete, if any.
    ///
    /// O(1) once rates are solved: rates only change inside
    /// `FlowNet::recompute`, which ends by folding every flow's completion
    /// deadline into one cached minimum. The cached
    /// value is relative to the last settle instant; every scheduler query
    /// happens at the instant of the latest start or tick, so the fast
    /// path always applies there. Any other call pattern (e.g. a probe at
    /// an arbitrary time) falls back to the reference scan.
    pub fn next_completion(&mut self, now: SimTime) -> Option<SimTime> {
        self.refresh();
        if self.earliest_fresh && now == self.last_settle {
            return self.earliest.map(|d| now.saturating_add(d));
        }
        self.next_completion_reference(now)
    }

    /// Reference implementation of [`FlowNet::next_completion`]: a full
    /// scan over every flow slot. Kept as the oracle the incremental
    /// completion index is property-tested against.
    pub fn next_completion_reference(&mut self, now: SimTime) -> Option<SimTime> {
        self.refresh();
        let mut best: Option<SimDuration> = None;
        for f in self.flows.iter().flatten() {
            let d = if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                SimDuration::ZERO
            } else if f.rate <= 0.0 {
                continue; // starved; cannot complete until rates change
            } else {
                Self::completion_delay(f.remaining, f.rate)
            };
            best = Some(match best {
                Some(b) if b <= d => b,
                _ => d,
            });
        }
        best.map(|d| now.saturating_add(d))
    }

    /// How long a flow with `remaining` bytes at `rate` B/s needs to
    /// finish: [`FlowNet::delay_of`] its drain time in seconds.
    #[inline]
    fn completion_delay(remaining: f64, rate: f64) -> SimDuration {
        Self::delay_of(remaining / rate)
    }

    /// The delay for a drain time of `secs` seconds. Rounds *up* and pads
    /// by 1 ns so the settle at the scheduled instant always clears the
    /// flow; rounding down can strand a sub-nanosecond sliver of bytes
    /// and loop forever at one timestamp. Monotone non-decreasing in
    /// `secs`, so the smallest delay of a set of flows is the delay of
    /// their smallest drain time.
    #[inline]
    fn delay_of(secs: f64) -> SimDuration {
        let ns = (secs * 1e9).ceil();
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration::from_nanos((ns as u64).saturating_add(1))
        }
    }

    /// Advances all remaining-byte counters to `now` at the rates in
    /// effect since the last settle.
    fn settle(&mut self, now: SimTime) {
        let dt = now
            .saturating_duration_since(self.last_settle)
            .as_secs_f64();
        if dt > 0.0 {
            self.refresh();
        }
        self.last_settle = now;
        if dt <= 0.0 {
            return;
        }
        // Remaining-byte counters moved; cached deadlines are measured
        // from the old settle instant and must be re-derived.
        self.earliest_fresh = false;
        self.finishing = 0;
        for &fi in &self.active {
            let f = self.flows[fi as usize].as_mut().expect("active flow");
            if f.rate.is_infinite() {
                f.remaining = 0.0;
            } else {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            if f.remaining <= EPSILON_BYTES {
                self.finishing += 1;
            }
        }
    }

    /// Adds (`join`) or removes one occurrence of a flow crossing
    /// `flow_links` to link `l`'s cover, and queues `l` for the next solve
    /// to re-test whether it is slack.
    fn update_cover(&mut self, flow_links: &[LinkId], l: LinkId, join: bool) {
        let cover = cover_of(&self.links, flow_links, l);
        let link = &mut self.links[l.0 as usize];
        match (cover, join) {
            (Some(c), true) => link.cover += u128::from(c),
            (Some(c), false) => link.cover -= u128::from(c),
            (None, true) => link.uncovered += 1,
            (None, false) => link.uncovered -= 1,
        }
        if !link.changed {
            link.changed = true;
            self.changed.push(l.0);
        }
    }

    /// Solves the rates if a flow started or finished since the last solve.
    fn refresh(&mut self) {
        if self.stale {
            self.recompute();
        }
    }

    /// Recomputes max-min fair rates with progressive filling, and the
    /// completion deadlines that follow from them.
    ///
    /// Only the region a change can reach is re-solved (see the module
    /// docs): the started flows and the members of changed links that
    /// bind now or did before, closed over binding links. Inside it the
    /// work is proportional to the region's flows and links — counts and
    /// residuals come from the per-link membership lists, the bottleneck
    /// of each filling round comes from a min-heap of lazy lower-bound
    /// keys, and each round freezes only the members of the bottleneck
    /// link. Tie-breaking and floating-point evaluation order are kept
    /// exactly as the dense scan had them (link creation order, ascending
    /// flow slot, shares derived from the live residual/count at selection
    /// time), so computed rates — and therefore virtual time — are
    /// bit-identical. It ends by freeing the released links no flow
    /// crosses any more.
    fn recompute(&mut self) {
        let FlowNet {
            links,
            free_links,
            retired,
            flows,
            active,
            members,
            changed,
            started,
            earliest,
            earliest_fresh,
            stale,
            stalled,
            scratch,
            ..
        } = self;
        let RecomputeScratch {
            counts,
            residual,
            low,
            heap,
            queued_at,
            frozen_at,
            epoch,
            region,
            ..
        } = scratch;
        *epoch += 1;
        let epoch = *epoch;
        counts.resize(links.len(), 0);
        residual.resize(links.len(), 0.0);
        low.resize(links.len(), 0.0);
        queued_at.resize(flows.len(), 0);
        frozen_at.resize(flows.len(), 0);
        stalled.clear();
        *stale = false;

        // Seed the region, then close it over binding links, queueing
        // each binding link's first share key as it joins.
        region.clear();
        let mut queue = |fi: u32, region: &mut Vec<u32>| {
            if queued_at[fi as usize] != epoch {
                queued_at[fi as usize] = epoch;
                region.push(fi);
            }
        };
        for &fi in started.iter() {
            queue(fi, region);
        }
        started.clear();
        for &li in changed.iter() {
            let link = &mut links[li as usize];
            link.changed = false;
            let bound = link.binds;
            link.binds = !link.slack();
            if bound || link.binds {
                for &m in &members[li as usize] {
                    queue(m, region);
                }
            }
        }
        changed.clear();
        let mut keys = std::mem::take(heap).into_vec();
        keys.clear();
        let mut next = 0;
        while let Some(&fi) = region.get(next) {
            next += 1;
            for l in &flows[fi as usize]
                .as_ref()
                .expect("region flow is active")
                .links
            {
                let li = l.0 as usize;
                if !links[li].binds || counts[li] > 0 {
                    continue;
                }
                counts[li] = members[li].len() as u32;
                residual[li] = links[li].capacity;
                low[li] = residual[li] / counts[li] as f64;
                keys.push(Reverse(ShareKey {
                    share: low[li],
                    rank: links[li].rank,
                    li: l.0,
                }));
                for &m in &members[li] {
                    queue(m, region);
                }
            }
        }
        *heap = BinaryHeap::from(keys);

        let mut unfrozen = region.len();
        while unfrozen > 0 {
            // Pop keys until one equals the live share of its link. Every
            // live link keeps its `low` key queued and `low` never exceeds
            // the live share, so the first match is the true bottleneck.
            let mut bottleneck = None;
            while let Some(Reverse(key)) = heap.pop() {
                let l = key.li as usize;
                if counts[l] == 0 {
                    continue;
                }
                let share = residual[l] / counts[l] as f64;
                if share == key.share {
                    bottleneck = Some((l, share));
                    break;
                }
                if key.share == low[l] {
                    // The link's share rose since its lowest key was
                    // queued; queue the live value in its place.
                    low[l] = share;
                    heap.push(Reverse(ShareKey { share, ..key }));
                }
            }
            match bottleneck {
                None => {
                    // Remaining flows cross only infinite-capacity links
                    // (every finite link bounds its tightest member).
                    for &fi in region.iter() {
                        let i = fi as usize;
                        if frozen_at[i] == epoch {
                            continue;
                        }
                        let f = flows[i].as_mut().expect("region flow is active");
                        debug_assert!(
                            f.links
                                .iter()
                                .all(|l| links[l.0 as usize].capacity.is_infinite()),
                            "unfrozen flow for process {} crosses a finite link",
                            f.waker
                        );
                        f.rate = f64::INFINITY;
                    }
                    break;
                }
                Some((bli, share)) => {
                    let share = share.max(0.0);
                    // Freeze all unfrozen flows crossing the bottleneck in
                    // ascending slot order (the dense scan's flow order).
                    for &m in &members[bli] {
                        let i = m as usize;
                        if frozen_at[i] == epoch {
                            continue;
                        }
                        frozen_at[i] = epoch;
                        unfrozen -= 1;
                        let f = flows[i].as_mut().expect("member flow is active");
                        f.rate = share;
                        for l in &f.links {
                            let li = l.0 as usize;
                            if !links[li].binds {
                                continue;
                            }
                            residual[li] = (residual[li] - share).max(0.0);
                            counts[li] -= 1;
                            if counts[li] > 0 {
                                // Only rounding can lower a share here.
                                let s = residual[li] / counts[li] as f64;
                                if s < low[li] {
                                    low[li] = s;
                                    heap.push(Reverse(ShareKey {
                                        share: s,
                                        rank: links[li].rank,
                                        li: l.0,
                                    }));
                                }
                            }
                        }
                        if f.rate <= 0.0 && f.remaining > EPSILON_BYTES {
                            // The fair share came out non-positive: the
                            // links this flow crosses were fully consumed
                            // by earlier-frozen flows, so it can never
                            // finish at current rates. Surface it loudly
                            // instead of letting the run hang.
                            debug_assert!(
                                false,
                                "flow for process {} starved at rate {} with {} bytes left",
                                f.waker, f.rate, f.remaining
                            );
                            stalled.push(f.waker);
                        }
                    }
                }
            }
        }

        // Every flow's remaining bytes moved at the last settle, so every
        // deadline is re-derived, not only the region's.
        *earliest = Self::earliest_delay(active, flows);
        *earliest_fresh = true;

        // No link is queued in `changed` any more, so a released link is
        // free once its last flow has left.
        retired.retain(|&li| {
            let crossed = !members[li as usize].is_empty();
            if !crossed {
                free_links.push(li);
            }
            crossed
        });
    }

    /// The earliest completion delay among the `active` flows, the
    /// minimum of [`FlowNet::completion_delay`] over them. `delay_of` is
    /// monotone, so it is taken once, of the smallest drain time.
    fn earliest_delay(active: &[u32], flows: &[Option<Flow>]) -> Option<SimDuration> {
        let mut soonest = f64::INFINITY;
        let mut any = false;
        for &fi in active {
            let f = flows[fi as usize].as_ref().expect("active flow");
            if f.remaining <= EPSILON_BYTES || f.rate.is_infinite() {
                return Some(SimDuration::ZERO);
            }
            // Starved flows (rate ≤ 0) cannot complete until rates change.
            if f.rate > 0.0 {
                soonest = soonest.min(f.remaining / f.rate);
                any = true;
            }
        }
        any.then(|| Self::delay_of(soonest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn rates(net: &mut FlowNet) -> Vec<f64> {
        net.flow_rates().map(|(_, rate)| rate).collect()
    }

    fn tick(net: &mut FlowNet, now: SimTime) -> Vec<u32> {
        let mut woken = Vec::new();
        net.tick(now, &mut woken);
        woken
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(t(0), FlowSpec::new(ByteSize::new(200), &[l]), 0);
        assert_eq!(rates(&mut net), vec![100.0]);
        let done_at = net.next_completion(t(0)).expect("one active flow");
        assert!(done_at.as_nanos().abs_diff(t(2000).as_nanos()) <= 2);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        let spec = |b| FlowSpec::new(ByteSize::new(b), &[l]);
        net.start(t(0), spec(100), 0);
        net.start(t(0), spec(100), 1);
        assert_eq!(rates(&mut net), vec![50.0, 50.0]);
    }

    #[test]
    fn bottleneck_elsewhere_frees_capacity() {
        // Flow A limited by its private 10 B/s NIC; flow B shares the
        // 100 B/s backbone with A and should get the residual 90 B/s.
        let mut net = FlowNet::new();
        let nic = net.add_link(Bandwidth::bytes_per_sec(10.0));
        let backbone = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(
            t(0),
            FlowSpec::new(ByteSize::new(1000), &[nic, backbone]),
            0,
        );
        net.start(t(0), FlowSpec::new(ByteSize::new(1000), &[backbone]), 1);
        let r = rates(&mut net);
        assert_eq!(r[0], 10.0);
        assert_eq!(r[1], 90.0);
    }

    #[test]
    fn rates_rebalance_when_a_flow_finishes() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(t(0), FlowSpec::new(ByteSize::new(50), &[l]), 0);
        net.start(t(0), FlowSpec::new(ByteSize::new(500), &[l]), 1);
        // Both at 50 B/s; flow 0 finishes at t=1s.
        let first = net.next_completion(t(0)).expect("two active flows");
        assert!(first.as_nanos().abs_diff(t(1000).as_nanos()) <= 2);
        let woken = tick(&mut net, first);
        assert_eq!(woken, vec![0]);
        // Flow 1 had 500-50=450 left, now at full 100 B/s.
        assert_eq!(rates(&mut net), vec![100.0]);
        let second = net.next_completion(first).expect("one active flow");
        assert!(second.as_nanos().abs_diff(t(1000 + 4500).as_nanos()) <= 4);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        net.start(t(5), FlowSpec::new(ByteSize::ZERO, &[l]), 7);
        assert_eq!(net.next_completion(t(5)), Some(t(5)));
        assert_eq!(tick(&mut net, t(5)), vec![7]);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn unconstrained_flow_is_instantaneous() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::UNLIMITED);
        net.start(t(1), FlowSpec::new(ByteSize::gib(10), &[l]), 3);
        assert_eq!(net.next_completion(t(1)), Some(t(1)));
        assert_eq!(tick(&mut net, t(1)), vec![3]);
    }

    #[test]
    fn aggregate_link_rate_reports_sum() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        for i in 0..4 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec::new(ByteSize::new(10_000), &[nic, backbone]),
                i,
            );
        }
        // 4 NIC-limited flows at 100 B/s each => 400 B/s on the backbone.
        assert!((net.link_rate(backbone) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn backbone_saturation_caps_aggregate() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(250.0));
        for i in 0..4 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec::new(ByteSize::new(10_000), &[nic, backbone]),
                i,
            );
        }
        // Fair share on the backbone is 62.5 B/s < NIC cap.
        for r in rates(&mut net) {
            assert!((r - 62.5).abs() < 1e-9);
        }
        assert!((net.link_rate(backbone) - 250.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn unknown_link_panics() {
        let mut net = FlowNet::new();
        net.start(t(0), FlowSpec::new(ByteSize::new(1), &[LinkId(9)]), 0);
    }

    #[test]
    fn flow_slots_are_reused() {
        let mut net = FlowNet::new();
        let l = net.add_link(Bandwidth::bytes_per_sec(100.0));
        let spec = FlowSpec::new(ByteSize::new(100), &[l]);
        net.start(t(0), spec.clone(), 0);
        let done = net.next_completion(t(0)).expect("one flow");
        tick(&mut net, done);
        net.start(done, spec, 1);
        assert_eq!(net.flows.len(), 1, "slot should be recycled");
    }

    #[test]
    fn equal_shares_break_ties_by_creation_order_when_slots_are_reused() {
        // Links `a` and `b` both share 1 B/s among three flows, one flow
        // crossing both. The link solved first gives its flows exactly
        // 1/3; the other's own flows get (1 − 1/3)/2, one ulp more. `b`
        // takes the slot `a`'s predecessor released, so its id is lower,
        // but `a` was created first and must still be solved first.
        let cap = Bandwidth::bytes_per_sec(1.0);
        let rates_of = |net: &mut FlowNet, a: LinkId, b: LinkId| {
            for (waker, links) in [[a].as_slice(), &[a, b], &[a], &[b], &[b]]
                .into_iter()
                .enumerate()
            {
                net.start(t(0), FlowSpec::new(ByteSize::new(100), links), waker as u32);
            }
            rates(net)
        };
        let mut recycled = FlowNet::new();
        let gone = recycled.add_link(cap);
        let a = recycled.add_link(cap);
        recycled.release_link(gone);
        let b = recycled.add_link(cap);
        assert_eq!(b, gone, "b reuses the released slot");
        let got = rates_of(&mut recycled, a, b);

        let mut fresh = FlowNet::new();
        fresh.add_link(cap);
        let (a, b) = (fresh.add_link(cap), fresh.add_link(cap));
        let want = rates_of(&mut fresh, a, b);
        assert_eq!(
            got, want,
            "every rate matches the net that released nothing"
        );
        assert_eq!(got[0], 1.0 / 3.0, "a, created first, is solved first");
        assert_ne!(got[3], got[0], "the tie-break shows in the rates");
    }

    #[test]
    fn released_links_cycle_through_a_constant_table() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        let mut now = t(0);
        for i in 0..10_000u32 {
            let conn = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(now, FlowSpec::new(ByteSize::new(100), &[conn, backbone]), i);
            now = net.next_completion(now).expect("one flow");
            assert_eq!(tick(&mut net, now), vec![i]);
            // The finished flow left `conn` queued for the next solve, so
            // its slot is reclaimed by that solve, not here.
            net.release_link(conn);
        }
        assert_eq!(net.links.len(), 3, "the backbone and two connection slots");
        assert_eq!(net.members.len(), 3);
        assert!(net.scratch.residual.len() <= 3);
    }

    #[test]
    fn cached_next_completion_matches_reference_after_churn() {
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        let mut now = t(0);
        for i in 0..32u32 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(64.0 + i as f64));
            net.start(
                now,
                FlowSpec::new(ByteSize::new(1000 + 37 * i as u64), &[nic, backbone]),
                i,
            );
            assert_eq!(
                net.next_completion(now),
                net.next_completion_reference(now),
                "after start {}",
                i
            );
            now = now.saturating_add(SimDuration::from_nanos(1_000_000 * (i as u64 % 3)));
        }
        while net.active_flows() > 0 {
            let at = net.next_completion(now).expect("active flows remain");
            assert_eq!(net.next_completion(now), net.next_completion_reference(now));
            let woken = tick(&mut net, at);
            assert!(!woken.is_empty(), "tick at next_completion completes");
            now = at;
            assert_eq!(net.next_completion(now), net.next_completion_reference(now));
        }
    }

    #[test]
    fn a_change_re_solves_only_the_flows_it_can_reach() {
        // Four functions, each with a 100 B/s NIC and two flows to a
        // 1000 B/s backbone. The backbone's cover is 8 × 100 B/s, so it
        // is slack and each function's flows are a component of their own.
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(1000.0));
        let nics: Vec<LinkId> = (0..4)
            .map(|_| net.add_link(Bandwidth::bytes_per_sec(100.0)))
            .collect();
        let start = |net: &mut FlowNet, nic: LinkId, waker: u32| {
            net.start(
                t(0),
                FlowSpec::new(ByteSize::new(10_000), &[nic, backbone]),
                waker,
            );
        };
        let region = |net: &mut FlowNet| {
            net.refresh();
            let mut slots = net.scratch.region.clone();
            slots.sort_unstable();
            slots
        };
        for w in 0..8 {
            start(&mut net, nics[w as usize / 2], w);
        }
        assert_eq!(region(&mut net), (0..8).collect::<Vec<u32>>());

        // One more flow on function 1's NIC re-solves exactly function
        // 1's flows (slots 2, 3 and the new slot 8).
        start(&mut net, nics[1], 8);
        assert_eq!(region(&mut net), vec![2, 3, 8]);
        let third = 100.0 / 3.0;
        assert_eq!(
            rates(&mut net),
            vec![50.0, 50.0, third, third, 50.0, 50.0, 50.0, 50.0, third]
        );

        // A tenth flow lifts the cover to 1000 B/s: the backbone may now
        // bind, so the region is every active flow.
        start(&mut net, nics[2], 9);
        assert_eq!(region(&mut net), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn healthy_topologies_never_report_stalls() {
        // With exact arithmetic progressive filling cannot starve a flow
        // (each round's bottleneck share is non-decreasing), so the stall
        // channel only trips on a rate-computation bug or float
        // pathology. A saturated mixed topology must stay clean.
        let mut net = FlowNet::new();
        let backbone = net.add_link(Bandwidth::bytes_per_sec(250.0));
        for i in 0..8 {
            let nic = net.add_link(Bandwidth::bytes_per_sec(100.0));
            net.start(
                t(0),
                FlowSpec::new(ByteSize::new(1000 + i as u64), &[nic, backbone]),
                i,
            );
            assert_eq!(net.take_stalled(), None, "after start {}", i);
        }
        while net.active_flows() > 0 {
            let at = net
                .next_completion(net.last_settle)
                .expect("active flows remain");
            tick(&mut net, at);
            assert_eq!(net.take_stalled(), None);
        }
    }
}
