//! VM instance profiles (a small catalog of IBM `bx2` balanced shapes).

use faaspipe_des::{Bandwidth, SimDuration};

/// Shape and performance model of a VM instance type.
#[derive(Debug, Clone, PartialEq)]
pub struct VmProfile {
    /// Provider profile name, e.g. `bx2-8x32`.
    pub name: String,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gib: u32,
    /// NIC bandwidth (IBM bx2 profiles get 2 Gbps per vCPU, capped).
    pub nic_bw: Bandwidth,
    /// Time from provisioning request to a usable instance. Covers
    /// scheduling, boot, and the Lithops runtime bootstrap the paper's
    /// hybrid pipeline pays before the sort can start.
    pub provisioning: SimDuration,
    /// Parallel efficiency of multi-threaded work on this shape in
    /// `(0, 1]`: 8 threads deliver `8 * efficiency` times one thread.
    pub parallel_efficiency: f64,
}

impl VmProfile {
    /// The paper's VM: IBM `bx2-8x32` (8 vCPU, 32 GiB).
    pub fn bx2_8x32() -> VmProfile {
        VmProfile {
            name: "bx2-8x32".to_string(),
            vcpus: 8,
            memory_gib: 32,
            nic_bw: Bandwidth::gbit_per_sec(16.0),
            provisioning: SimDuration::from_secs(44),
            parallel_efficiency: 0.82,
        }
    }

    /// Smaller sibling: `bx2-4x16`.
    pub fn bx2_4x16() -> VmProfile {
        VmProfile {
            name: "bx2-4x16".to_string(),
            vcpus: 4,
            memory_gib: 16,
            nic_bw: Bandwidth::gbit_per_sec(8.0),
            provisioning: SimDuration::from_secs(50),
            parallel_efficiency: 0.85,
        }
    }

    /// Larger sibling: `bx2-16x64`.
    pub fn bx2_16x64() -> VmProfile {
        VmProfile {
            name: "bx2-16x64".to_string(),
            vcpus: 16,
            memory_gib: 64,
            nic_bw: Bandwidth::gbit_per_sec(32.0),
            provisioning: SimDuration::from_secs(55),
            parallel_efficiency: 0.78,
        }
    }

    /// Effective speed-up of running work across `threads` threads.
    pub fn speedup(&self, threads: u32) -> f64 {
        let t = threads.min(self.vcpus) as f64;
        if t <= 1.0 {
            1.0
        } else {
            t * self.parallel_efficiency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_shape() {
        let p = VmProfile::bx2_8x32();
        assert_eq!(p.vcpus, 8);
        assert_eq!(p.memory_gib, 32);
        assert_eq!(p.name, "bx2-8x32");
    }

    #[test]
    fn speedup_caps_at_vcpus() {
        let p = VmProfile::bx2_8x32();
        assert_eq!(p.speedup(1), 1.0);
        assert!((p.speedup(8) - 8.0 * 0.82).abs() < 1e-12);
        assert_eq!(p.speedup(64), p.speedup(8), "more threads than vcpus");
    }

    #[test]
    fn catalog_profiles_are_ordered() {
        let small = VmProfile::bx2_4x16();
        let big = VmProfile::bx2_16x64();
        assert!(small.vcpus < big.vcpus);
        assert!(small.nic_bw.as_bytes_per_sec() < big.nic_bw.as_bytes_per_sec());
    }
}
