//! Ready-made simulation profiles: the paper's Table 2 hardware and a
//! proportionally scaled-down profile for laptop-speed experiment runs.

use hpage_trace::WorkloadScale;
use hpage_types::{PccConfig, SystemConfig, TlbConfig, TlbLevelConfig};

/// Couples a hardware [`SystemConfig`] with a workload scale so
/// experiments stay internally consistent (TLB coverage vs. footprint
/// ratios approximate the paper's; see DESIGN.md "Scaling defaults").
#[derive(Debug, Clone)]
pub struct SimProfile {
    /// Hardware/OS configuration.
    pub system: SystemConfig,
    /// Workload instantiation scale.
    pub workloads: WorkloadScale,
    /// Optional per-core trace cap (simulation window).
    pub max_accesses_per_core: Option<u64>,
}

/// Physical memory as a percentage of the workload footprint when
/// experiments size memory dynamically. The paper's fragmentation
/// results assume memory is nearly full (footprint is a large fraction
/// of a NUMA node), hence 150%.
const MEM_HEADROOM_PCT: u64 = 150;

impl SimProfile {
    /// The paper's exact Table 2 hardware, for full-scale runs (hours).
    pub fn paper() -> Self {
        SimProfile {
            system: SystemConfig::paper_system(),
            workloads: WorkloadScale {
                graph_scale: 24,
                synth: hpage_trace::SynthScale::BENCH,
                dbg_sorted: false,
            },
            max_accesses_per_core: None,
        }
    }

    /// The default experiment profile: hardware scaled so that the
    /// paper's coverage ratios (footprint ≫ TLB reach, HUB regions ≳ PCC
    /// capacity pressure) hold at minute-scale runtimes. TLB is 1/8 of
    /// Table 2; the PCC keeps 128 entries; graphs default to scale 20
    /// (BFS baseline PTW rates land in the paper's 25–35% band).
    pub fn scaled() -> Self {
        let tlb = TlbConfig {
            l1_4k: TlbLevelConfig::new(16, 4),
            l1_2m: TlbLevelConfig::new(8, 4),
            l1_1g: TlbLevelConfig::new(2, 2),
            l2: TlbLevelConfig::new(128, 8),
        };
        let system = SystemConfig {
            tlb,
            pcc_2m: PccConfig::paper_2m(),
            phys_mem_bytes: 2 << 30,
            promotion_interval_accesses: 1_000_000,
            scanner_pages_per_interval: 1024,
            timing: hpage_types::TimingConfig::paper().with_window_scale(8),
            ..SystemConfig::paper_system()
        };
        SimProfile {
            system,
            workloads: WorkloadScale {
                graph_scale: 20,
                synth: hpage_trace::SynthScale::TEST,
                dbg_sorted: false,
            },
            max_accesses_per_core: Some(10_000_000),
        }
    }

    /// A fast profile for tests and smoke runs (seconds).
    pub fn test() -> Self {
        SimProfile {
            system: SystemConfig::tiny(),
            workloads: WorkloadScale::TEST,
            max_accesses_per_core: Some(1_500_000),
        }
    }

    /// Overrides the graph scale.
    #[must_use]
    pub fn with_graph_scale(mut self, scale: u32) -> Self {
        self.workloads.graph_scale = scale;
        self
    }

    /// Sizes physical memory to fit `footprint_bytes` with
    /// [`MEM_HEADROOM_PCT`] headroom, 2 MiB-aligned, and returns the
    /// updated profile.
    #[must_use]
    pub fn sized_for(mut self, footprint_bytes: u64) -> Self {
        let want = (footprint_bytes.saturating_mul(MEM_HEADROOM_PCT) / 100).max(64 << 21);
        self.system.phys_mem_bytes = want.next_multiple_of(1 << 21);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_valid() {
        SimProfile::paper().system.validate().unwrap();
        SimProfile::scaled().system.validate().unwrap();
        SimProfile::test().system.validate().unwrap();
    }

    #[test]
    fn scaled_keeps_paper_pcc() {
        let p = SimProfile::scaled();
        assert_eq!(p.system.pcc_2m.entries, 128);
        assert_eq!(p.system.tlb.l2.entries, 128);
    }

    #[test]
    fn sized_for_adds_headroom() {
        let p = SimProfile::test().sized_for(100 << 20);
        assert!(p.system.phys_mem_bytes >= 150 << 20);
        assert!(p.system.phys_mem_bytes < 200 << 20);
        assert_eq!(p.system.phys_mem_bytes % (1 << 21), 0);
        p.system.validate().unwrap();
    }

    #[test]
    fn graph_scale_override() {
        let p = SimProfile::test().with_graph_scale(10);
        assert_eq!(p.workloads.graph_scale, 10);
    }
}
