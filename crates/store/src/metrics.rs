//! Request accounting, grouped by billing class and by client tag.
//!
//! Cost models (in `faaspipe-core`) turn these counters into dollars; the
//! per-tag breakdown is what powers the paper's per-stage cost display
//! (§2.4, the IPython job tracker).

use std::collections::BTreeMap;

use faaspipe_des::ByteSize;

/// Billing class of a request, mirroring COS/S3 pricing tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestClass {
    /// Write and list requests: PUT, LIST.
    ClassA,
    /// Read requests: GET, ranged GET.
    ClassB,
}

/// Counters for one client tag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagMetrics {
    /// Class-A (write/list) request count.
    pub class_a: u64,
    /// Class-B (read) request count.
    pub class_b: u64,
    /// Modelled bytes uploaded.
    pub bytes_in: ByteSize,
    /// Modelled bytes downloaded.
    pub bytes_out: ByteSize,
    /// Requests that failed (including injected faults).
    pub errors: u64,
}

impl TagMetrics {
    /// Total request count across classes.
    pub fn total_requests(&self) -> u64 {
        self.class_a + self.class_b
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &TagMetrics) {
        self.class_a += other.class_a;
        self.class_b += other.class_b;
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.bytes_out = self.bytes_out.saturating_add(other.bytes_out);
        self.errors += other.errors;
    }
}

/// Store-wide metrics: a per-tag breakdown plus helpers for totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    per_tag: BTreeMap<String, TagMetrics>,
}

impl StoreMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        StoreMetrics::default()
    }

    /// Records a request for `tag`. The tag is copied only the first
    /// time it is seen.
    pub fn record(
        &mut self,
        tag: &str,
        class: RequestClass,
        bytes_in: u64,
        bytes_out: u64,
        failed: bool,
    ) {
        let m = match self.per_tag.get_mut(tag) {
            Some(m) => m,
            None => self.per_tag.entry(tag.to_string()).or_default(),
        };
        match class {
            RequestClass::ClassA => m.class_a += 1,
            RequestClass::ClassB => m.class_b += 1,
        }
        m.bytes_in = m.bytes_in.saturating_add(ByteSize::new(bytes_in));
        m.bytes_out = m.bytes_out.saturating_add(ByteSize::new(bytes_out));
        if failed {
            m.errors += 1;
        }
    }

    /// Metrics for one tag, if it issued any request.
    pub fn tag(&self, tag: &str) -> Option<&TagMetrics> {
        self.per_tag.get(tag)
    }

    /// Iterates over `(tag, metrics)` in tag order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TagMetrics)> {
        self.per_tag.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Sum of all tags.
    pub fn total(&self) -> TagMetrics {
        let mut t = TagMetrics::default();
        for m in self.per_tag.values() {
            t.merge(m);
        }
        t
    }

    /// Sum of all tags belonging to `scope`: the tag equals `scope` or
    /// starts with `scope/`. With the cluster's `tenant/run/stage` tag
    /// convention this is one tenant's store traffic.
    pub fn total_for_scope(&self, scope: &str) -> TagMetrics {
        let mut t = TagMetrics::default();
        for (tag, m) in &self.per_tag {
            if tag == scope || (tag.starts_with(scope) && tag[scope.len()..].starts_with('/')) {
                t.merge(m);
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_class_and_tag() {
        let mut m = StoreMetrics::new();
        m.record("sort", RequestClass::ClassA, 100, 0, false);
        m.record("sort", RequestClass::ClassB, 0, 50, false);
        m.record("encode", RequestClass::ClassB, 0, 70, true);
        let sort = m.tag("sort").expect("sort recorded");
        assert_eq!(sort.class_a, 1);
        assert_eq!(sort.class_b, 1);
        assert_eq!(sort.bytes_in.as_u64(), 100);
        assert_eq!(sort.bytes_out.as_u64(), 50);
        assert_eq!(sort.errors, 0);
        let enc = m.tag("encode").expect("encode recorded");
        assert_eq!(enc.errors, 1);
        assert_eq!(m.total().total_requests(), 3);
        assert_eq!(m.total().bytes_out.as_u64(), 120);
    }

    #[test]
    fn iter_is_sorted_by_tag() {
        let mut m = StoreMetrics::new();
        m.record("z", RequestClass::ClassB, 0, 0, false);
        m.record("a", RequestClass::ClassA, 0, 0, false);
        let tags: Vec<&str> = m.iter().map(|(t, _)| t).collect();
        assert_eq!(tags, vec!["a", "z"]);
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = TagMetrics {
            class_a: 1,
            class_b: 2,
            bytes_in: ByteSize::new(10),
            bytes_out: ByteSize::new(20),
            errors: 1,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.class_a, 2);
        assert_eq!(a.total_requests(), 6);
        assert_eq!(a.bytes_in.as_u64(), 20);
    }
}
