//! The typed event taxonomy — one variant per decision point the paper
//! describes (Figs. 3–4: the TLB/PTW datapath, the PCC update rules,
//! and the OS promotion engine).

use crate::json::num;
use hpage_types::{CoreId, PageSize, ProcessId, Vpn};

/// Which TLB level satisfied a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// A split-size L1 structure.
    L1,
    /// The unified L2.
    L2,
}

/// What a PCC did with one reported page-table walk (mirrors
/// `hpage_pcc::PccEvent`, kept separate so this crate stays at the
/// bottom of the dependency graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PccAction {
    /// The region was already tracked; its counter was bumped to the
    /// carried frequency.
    Hit(u64),
    /// The region was inserted into a free entry.
    Inserted,
    /// The region was inserted, evicting the carried victim region.
    InsertedWithEviction(Vpn),
    /// The cold-miss A-bit filter dropped the walk (§3.2.2).
    FilteredColdMiss,
}

/// Why a promotion attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// No huge frame was available (fragmentation / memory pressure).
    NoFrames,
    /// The promotion budget (utility-curve cap) was exhausted.
    BudgetExhausted,
}

/// Log2 frequency-histogram buckets in an [`IntervalSnapshot`]: bucket
/// `i` counts PCC entries with `frequency in [2^i, 2^(i+1))` (bucket 0
/// also counts frequency 0; the last bucket absorbs the tail).
pub const FREQ_HISTOGRAM_BUCKETS: usize = 16;

/// State of the whole pipeline at one promotion-interval boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSnapshot {
    /// Interval index (0-based).
    pub interval: u64,
    /// Live entries across all per-core PCCs.
    pub pcc_occupancy: u64,
    /// Total entries across all per-core PCCs.
    pub pcc_capacity: u64,
    /// Log2 histogram of PCC entry frequencies (see
    /// [`FREQ_HISTOGRAM_BUCKETS`]).
    pub freq_histogram: [u32; FREQ_HISTOGRAM_BUCKETS],
    /// Fraction of this interval's accesses that hit any L1 TLB.
    pub l1_hit_rate: f64,
    /// Fraction that hit the unified L2 TLB.
    pub l2_hit_rate: f64,
    /// Fraction that walked the page table (the paper's PTW %).
    pub walk_rate: f64,
    /// 2 MiB blocks that are currently fully free and huge-capable.
    pub free_huge_blocks: u64,
    /// 2 MiB frames currently in use as huge pages.
    pub huge_pages_resident: u64,
    /// Total memory bloat (resident-beyond-touched bytes), all processes.
    pub bloat_bytes: u64,
}

/// One flight-recorder event. All payloads are `Copy` scalars so that
/// constructing an event costs nothing that the optimizer cannot erase
/// when the recorder is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A TLB lookup was satisfied without a walk.
    TlbHit {
        /// The looking-up core.
        core: CoreId,
        /// Which level hit.
        level: TlbLevel,
        /// Page size of the hit translation.
        size: PageSize,
    },
    /// A lookup missed the whole hierarchy and walked the page table.
    Walk {
        /// The walking core.
        core: CoreId,
        /// Page size of the resolved leaf.
        size: PageSize,
        /// Page-table levels the walk references without a PWC.
        levels: u8,
        /// Levels actually referenced after page-walk-cache hits
        /// (`levels - effective_levels` levels were PWC hits).
        effective_levels: u8,
        /// Whether the leaf's PMD accessed bit was already set before
        /// this walk (the PCC's cold-miss filter input, §3.2.2).
        a_bit_was_set: bool,
    },
    /// A page fault mapped new memory.
    Fault {
        /// The faulting core.
        core: CoreId,
        /// The owning process.
        process: ProcessId,
        /// Page size the fault was served with.
        size: PageSize,
    },
    /// A PCC processed one reported walk.
    PccUpdate {
        /// The core whose PCC updated.
        core: CoreId,
        /// PCC granularity (2 MiB or 1 GiB region tracking).
        granularity: PageSize,
        /// The region reported.
        region: Vpn,
        /// What the PCC did.
        action: PccAction,
        /// Whether this update saturated a counter and halved the whole
        /// PCC (the paper's decay function).
        decayed: bool,
    },
    /// The OS engine promoted a region.
    PromotionDecision {
        /// The owning process.
        process: ProcessId,
        /// The promoted 2 MiB region.
        region: Vpn,
        /// Rank among this interval's promotions (0 = chosen first).
        rank: u32,
        /// The deciding policy's name.
        policy: &'static str,
        /// The policy's predicted benefit at decision time: the PCC
        /// frequency (walks last interval) for PCC-driven policies, 0
        /// for policies that do not predict (THP, HawkEye coverage,
        /// replay). This is the "predicted" side of the promotion
        /// ledger's predicted-vs-realized accounting.
        predicted_walks: u64,
    },
    /// A promotion attempt failed.
    PromotionFailure {
        /// Why.
        reason: FailureReason,
    },
    /// A promotion triggered compaction (pages migrated to assemble a
    /// free 2 MiB block).
    Compaction {
        /// The promoting process.
        process: ProcessId,
        /// The region whose promotion compacted.
        region: Vpn,
        /// Base pages migrated.
        pages_migrated: u64,
    },
    /// The OS demoted a promoted region (memory pressure, §3.3.3).
    Demotion {
        /// The owning process.
        process: ProcessId,
        /// The demoted region.
        region: Vpn,
    },
    /// A TLB shootdown was broadcast for a region.
    Shootdown {
        /// The owning process.
        process: ProcessId,
        /// The invalidated region.
        region: Vpn,
        /// TLB entries actually removed across the owning cores — the
        /// shootdown's "duration" proxy (each removed entry is an
        /// invalidation the IPI handler would have performed).
        entries_flushed: u64,
    },
    /// An injected shootdown storm (interfering-workload interference)
    /// flushed one core's entire TLB hierarchy and page-walk cache —
    /// distinct from the per-region [`Shootdown`](Event::Shootdown)
    /// broadcast a promotion sends.
    ShootdownStorm {
        /// The flushed core.
        core: CoreId,
        /// Resident TLB translations discarded by the flush.
        entries_flushed: u64,
    },
    /// Interval-boundary snapshot of the whole pipeline.
    Interval(IntervalSnapshot),
    /// The fault injector activated a fault this interval.
    FaultInjected {
        /// The fault plan's wire label for the kind ("oom",
        /// "fragmentation_shock", …).
        fault: &'static str,
        /// Interval the fault fired in.
        interval: u64,
    },
    /// A promotion candidate was skipped because its exponential backoff
    /// has not expired (graceful degradation under injected faults).
    PromotionDeferred {
        /// The owning process.
        process: ProcessId,
        /// The deferred region.
        region: Vpn,
        /// Simulation time (accesses) when the region may retry.
        retry_at: u64,
        /// Consecutive promotion failures for this region so far.
        failures: u32,
    },
    /// The pressure detector engaged: promotion is throttled and cold
    /// huge regions become demotion targets.
    PressureEnter {
        /// Free huge-capable blocks at the moment of entry.
        free_blocks: u64,
        /// Total bloat at the moment of entry.
        bloat_bytes: u64,
    },
    /// The pressure detector disengaged (hysteresis threshold reached).
    PressureExit {
        /// Free huge-capable blocks at the moment of exit.
        free_blocks: u64,
    },
    /// A pressure demotion reclaimed bloat: never-touched tail pages of a
    /// huge region were unmapped and their frames freed.
    BloatRecovered {
        /// The owning process.
        process: ProcessId,
        /// Bytes returned to the free pool.
        bytes: u64,
    },
    /// Nested mode: the host promoted a guest-physical region to a huge
    /// page (the guest-side decision is the ordinary
    /// [`PromotionDecision`](Event::PromotionDecision)).
    HostPromotion {
        /// The VM (pid of the guest process) whose host mapping changed.
        process: ProcessId,
        /// The promoted guest-physical 2 MiB region.
        region: Vpn,
        /// The host policy's predicted benefit at decision time.
        predicted_walks: u64,
    },
}

/// Every event kind's wire name, in emission-summary order.
pub const EVENT_KINDS: [&str; 17] = [
    "tlb_hit",
    "walk",
    "fault",
    "pcc",
    "promote",
    "promote_fail",
    "compact",
    "demote",
    "shootdown",
    "shootdown_storm",
    "interval",
    "fault_injected",
    "defer",
    "pressure_enter",
    "pressure_exit",
    "bloat_recovered",
    "host_promote",
];

fn size_str(size: PageSize) -> &'static str {
    match size {
        PageSize::Base4K => "4k",
        PageSize::Huge2M => "2m",
        PageSize::Huge1G => "1g",
    }
}

impl Event {
    /// The event's wire name (the JSONL `type` field; one of
    /// [`EVENT_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TlbHit { .. } => "tlb_hit",
            Event::Walk { .. } => "walk",
            Event::Fault { .. } => "fault",
            Event::PccUpdate { .. } => "pcc",
            Event::PromotionDecision { .. } => "promote",
            Event::PromotionFailure { .. } => "promote_fail",
            Event::Compaction { .. } => "compact",
            Event::Demotion { .. } => "demote",
            Event::Shootdown { .. } => "shootdown",
            Event::ShootdownStorm { .. } => "shootdown_storm",
            Event::Interval(_) => "interval",
            Event::FaultInjected { .. } => "fault_injected",
            Event::PromotionDeferred { .. } => "defer",
            Event::PressureEnter { .. } => "pressure_enter",
            Event::PressureExit { .. } => "pressure_exit",
            Event::BloatRecovered { .. } => "bloat_recovered",
            Event::HostPromotion { .. } => "host_promote",
        }
    }

    /// Renders the event as one JSON Lines record (no trailing newline).
    /// `at` is simulation time in total accesses issued.
    pub fn to_jsonl(&self, at: u64) -> String {
        let kind = self.kind();
        let body = match self {
            Event::TlbHit { core, level, size } => format!(
                "\"core\":{},\"level\":\"{}\",\"size\":\"{}\"",
                core.0,
                match level {
                    TlbLevel::L1 => "l1",
                    TlbLevel::L2 => "l2",
                },
                size_str(*size)
            ),
            Event::Walk {
                core,
                size,
                levels,
                effective_levels,
                a_bit_was_set,
            } => format!(
                "\"core\":{},\"size\":\"{}\",\"levels\":{},\"effective_levels\":{},\"a_bit\":{}",
                core.0,
                size_str(*size),
                levels,
                effective_levels,
                a_bit_was_set
            ),
            Event::Fault {
                core,
                process,
                size,
            } => format!(
                "\"core\":{},\"process\":{},\"size\":\"{}\"",
                core.0,
                process.0,
                size_str(*size)
            ),
            Event::PccUpdate {
                core,
                granularity,
                region,
                action,
                decayed,
            } => {
                let action_body = match action {
                    PccAction::Hit(freq) => format!("\"action\":\"hit\",\"freq\":{freq}"),
                    PccAction::Inserted => "\"action\":\"insert\"".into(),
                    PccAction::InsertedWithEviction(victim) => {
                        format!("\"action\":\"insert_evict\",\"evicted\":{}", victim.index())
                    }
                    PccAction::FilteredColdMiss => "\"action\":\"cold_filtered\"".into(),
                };
                format!(
                    "\"core\":{},\"gran\":\"{}\",\"region\":{},{},\"decayed\":{}",
                    core.0,
                    size_str(*granularity),
                    region.index(),
                    action_body,
                    decayed
                )
            }
            Event::PromotionDecision {
                process,
                region,
                rank,
                policy,
                predicted_walks,
            } => format!(
                "\"process\":{},\"region\":{},\"rank\":{},\"policy\":\"{}\",\"predicted_walks\":{}",
                process.0,
                region.index(),
                rank,
                crate::json::esc(policy),
                predicted_walks
            ),
            Event::PromotionFailure { reason } => format!(
                "\"reason\":\"{}\"",
                match reason {
                    FailureReason::NoFrames => "no_frames",
                    FailureReason::BudgetExhausted => "budget_exhausted",
                }
            ),
            Event::Compaction {
                process,
                region,
                pages_migrated,
            } => format!(
                "\"process\":{},\"region\":{},\"pages_migrated\":{}",
                process.0,
                region.index(),
                pages_migrated
            ),
            Event::Demotion { process, region } => {
                format!("\"process\":{},\"region\":{}", process.0, region.index())
            }
            Event::Shootdown {
                process,
                region,
                entries_flushed,
            } => format!(
                "\"process\":{},\"region\":{},\"entries_flushed\":{}",
                process.0,
                region.index(),
                entries_flushed
            ),
            Event::ShootdownStorm {
                core,
                entries_flushed,
            } => format!(
                "\"core\":{},\"entries_flushed\":{}",
                core.0, entries_flushed
            ),
            Event::Interval(s) => {
                let hist: Vec<String> = s.freq_histogram.iter().map(|c| c.to_string()).collect();
                format!(
                    "\"index\":{},\"pcc_occupancy\":{},\"pcc_capacity\":{},\
                     \"freq_hist\":[{}],\"l1_rate\":{},\"l2_rate\":{},\"walk_rate\":{},\
                     \"free_2m_blocks\":{},\"huge_resident\":{},\"bloat_bytes\":{}",
                    s.interval,
                    s.pcc_occupancy,
                    s.pcc_capacity,
                    hist.join(","),
                    num(s.l1_hit_rate),
                    num(s.l2_hit_rate),
                    num(s.walk_rate),
                    s.free_huge_blocks,
                    s.huge_pages_resident,
                    s.bloat_bytes
                )
            }
            Event::FaultInjected { fault, interval } => {
                format!(
                    "\"fault\":\"{}\",\"interval\":{}",
                    crate::json::esc(fault),
                    interval
                )
            }
            Event::PromotionDeferred {
                process,
                region,
                retry_at,
                failures,
            } => format!(
                "\"process\":{},\"region\":{},\"retry_at\":{},\"failures\":{}",
                process.0,
                region.index(),
                retry_at,
                failures
            ),
            Event::PressureEnter {
                free_blocks,
                bloat_bytes,
            } => format!("\"free_blocks\":{free_blocks},\"bloat_bytes\":{bloat_bytes}"),
            Event::PressureExit { free_blocks } => {
                format!("\"free_blocks\":{free_blocks}")
            }
            Event::BloatRecovered { process, bytes } => {
                format!("\"process\":{},\"bytes\":{}", process.0, bytes)
            }
            Event::HostPromotion {
                process,
                region,
                predicted_walks,
            } => format!(
                "\"process\":{},\"region\":{},\"predicted_walks\":{}",
                process.0,
                region.index(),
                predicted_walks
            ),
        };
        format!("{{\"at\":{at},\"type\":\"{kind}\",{body}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::assert_json_shape;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::TlbHit {
                core: CoreId(0),
                level: TlbLevel::L1,
                size: PageSize::Base4K,
            },
            Event::TlbHit {
                core: CoreId(1),
                level: TlbLevel::L2,
                size: PageSize::Huge2M,
            },
            Event::Walk {
                core: CoreId(0),
                size: PageSize::Base4K,
                levels: 4,
                effective_levels: 2,
                a_bit_was_set: true,
            },
            Event::Fault {
                core: CoreId(0),
                process: ProcessId(0),
                size: PageSize::Huge2M,
            },
            Event::PccUpdate {
                core: CoreId(0),
                granularity: PageSize::Huge2M,
                region: Vpn::new(12, PageSize::Huge2M),
                action: PccAction::Hit(3),
                decayed: false,
            },
            Event::PccUpdate {
                core: CoreId(0),
                granularity: PageSize::Huge2M,
                region: Vpn::new(13, PageSize::Huge2M),
                action: PccAction::InsertedWithEviction(Vpn::new(9, PageSize::Huge2M)),
                decayed: true,
            },
            Event::PromotionDecision {
                process: ProcessId(0),
                region: Vpn::new(12, PageSize::Huge2M),
                rank: 0,
                policy: "pcc",
                predicted_walks: 41,
            },
            Event::PromotionFailure {
                reason: FailureReason::NoFrames,
            },
            Event::PromotionFailure {
                reason: FailureReason::BudgetExhausted,
            },
            Event::Compaction {
                process: ProcessId(0),
                region: Vpn::new(12, PageSize::Huge2M),
                pages_migrated: 37,
            },
            Event::Demotion {
                process: ProcessId(1),
                region: Vpn::new(5, PageSize::Huge2M),
            },
            Event::Shootdown {
                process: ProcessId(0),
                region: Vpn::new(12, PageSize::Huge2M),
                entries_flushed: 7,
            },
            Event::ShootdownStorm {
                core: CoreId(2),
                entries_flushed: 131,
            },
            Event::Interval(IntervalSnapshot {
                interval: 3,
                pcc_occupancy: 100,
                pcc_capacity: 256,
                freq_histogram: [1; FREQ_HISTOGRAM_BUCKETS],
                l1_hit_rate: 0.9,
                l2_hit_rate: 0.05,
                walk_rate: 0.05,
                free_huge_blocks: 12,
                huge_pages_resident: 38,
                bloat_bytes: 1024,
            }),
            Event::FaultInjected {
                fault: "oom",
                interval: 4,
            },
            Event::PromotionDeferred {
                process: ProcessId(0),
                region: Vpn::new(12, PageSize::Huge2M),
                retry_at: 900_000,
                failures: 2,
            },
            Event::PressureEnter {
                free_blocks: 1,
                bloat_bytes: 4096,
            },
            Event::PressureExit { free_blocks: 6 },
            Event::BloatRecovered {
                process: ProcessId(1),
                bytes: 2 * 1024 * 1024 - 4096,
            },
            Event::HostPromotion {
                process: ProcessId(1),
                region: Vpn::new(0x2000_0000, PageSize::Huge2M),
                predicted_walks: 17,
            },
        ]
    }

    #[test]
    fn every_variant_renders_valid_json_with_its_kind() {
        for ev in sample_events() {
            let line = ev.to_jsonl(42);
            assert_json_shape(&line);
            assert!(line.starts_with("{\"at\":42,"), "line: {line}");
            assert!(
                line.contains(&format!("\"type\":\"{}\"", ev.kind())),
                "line: {line}"
            );
            assert!(EVENT_KINDS.contains(&ev.kind()));
        }
    }

    #[test]
    fn kind_names_are_unique() {
        let mut kinds: Vec<&str> = EVENT_KINDS.to_vec();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), EVENT_KINDS.len());
    }

    #[test]
    fn jsonl_is_deterministic() {
        let ev = Event::Walk {
            core: CoreId(2),
            size: PageSize::Huge2M,
            levels: 3,
            effective_levels: 1,
            a_bit_was_set: false,
        };
        assert_eq!(ev.to_jsonl(7), ev.to_jsonl(7));
        assert_eq!(
            ev.to_jsonl(7),
            "{\"at\":7,\"type\":\"walk\",\"core\":2,\"size\":\"2m\",\
             \"levels\":3,\"effective_levels\":1,\"a_bit\":false}"
        );
    }
}
