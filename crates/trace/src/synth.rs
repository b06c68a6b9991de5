//! Synthetic stand-ins for the PARSEC and SPEC CPU2017 workloads the
//! paper evaluates (canneal, dedup, mcf, omnetpp, xalancbmk).
//!
//! Each preset composes primitive access patterns (sequential streams,
//! uniform-random scatters, Zipf-skewed working sets, pointer chases)
//! over a laid-out address space, parameterised to reproduce the TLB
//! behaviour class the paper reports for the original application
//! (see DESIGN.md's substitution table).

use crate::layout::{AddressSpaceBuilder, ArrayLayout};
use crate::workload::{TraceSource, Workload, PIECE_LEN};
use hpage_types::{MemoryAccess, Region};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A primitive access pattern over one array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Walk the array front-to-back with `stride` elements between
    /// accesses, `count` accesses total (wraps around).
    Sequential {
        /// Elements skipped between consecutive accesses.
        stride: u64,
        /// Total accesses emitted.
        count: u64,
    },
    /// `count` uniformly random element accesses.
    UniformRandom {
        /// Total accesses emitted.
        count: u64,
    },
    /// `count` accesses with Zipf-distributed element popularity;
    /// `exponent` ≥ 0 controls the skew (0 = uniform).
    Zipf {
        /// Total accesses emitted.
        count: u64,
        /// Zipf exponent (θ); typical workloads: 0.6–1.1.
        exponent: f64,
    },
    /// A pointer chase: follow a fixed pseudo-random permutation through
    /// the array for `count` hops.
    PointerChase {
        /// Total accesses emitted.
        count: u64,
    },
}

/// One phase of a synthetic workload: a pattern bound to an array index.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Phase {
    array: usize,
    pattern: Pattern,
    write_ratio_pct: u8,
}

/// A synthetic workload assembled from arrays and phases.
///
/// Phases are interleaved access-by-access in a round-robin over their
/// remaining budgets, approximating the instruction-level mixing of real
/// applications (a hash lookup between stream reads, etc.).
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    seed: u64,
    arrays: Vec<ArrayLayout>,
    phases: Vec<Phase>,
    regions: Vec<Region>,
}

/// Builder for [`SyntheticWorkload`].
#[derive(Debug)]
pub struct SyntheticBuilder {
    name: String,
    seed: u64,
    asb: AddressSpaceBuilder,
    arrays: Vec<ArrayLayout>,
    phases: Vec<Phase>,
}

impl SyntheticBuilder {
    /// Starts a synthetic workload named `name` with RNG `seed`.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        SyntheticBuilder {
            name: name.into(),
            seed,
            asb: AddressSpaceBuilder::new(),
            arrays: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Adds an array of `len` elements of `element_bytes`; returns its
    /// index for use in [`phase`](Self::phase).
    pub fn array(&mut self, element_bytes: u64, len: u64) -> usize {
        let a = self.asb.array(element_bytes, len);
        self.arrays.push(a);
        self.arrays.len() - 1
    }

    /// Adds an access phase over `array` with `write_ratio_pct` percent of
    /// accesses being writes.
    ///
    /// # Panics
    ///
    /// Panics if `array` is out of range or `write_ratio_pct > 100`.
    pub fn phase(&mut self, array: usize, pattern: Pattern, write_ratio_pct: u8) -> &mut Self {
        assert!(array < self.arrays.len(), "array index out of range");
        assert!(write_ratio_pct <= 100, "write ratio is a percentage");
        self.phases.push(Phase {
            array,
            pattern,
            write_ratio_pct,
        });
        self
    }

    /// Finalises the workload.
    ///
    /// # Panics
    ///
    /// Panics if no phases were added.
    pub fn build(self) -> SyntheticWorkload {
        assert!(
            !self.phases.is_empty(),
            "a workload needs at least one phase"
        );
        SyntheticWorkload {
            name: self.name,
            seed: self.seed,
            regions: self.asb.regions().to_vec(),
            arrays: self.arrays,
            phases: self.phases,
        }
    }
}

impl SyntheticWorkload {
    /// The RNG seed (traces are deterministic in it).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn regions(&self) -> Vec<Region> {
        self.regions.clone()
    }

    fn thread_source(&self, thread: u32, threads: u32) -> Box<dyn TraceSource + Send + '_> {
        assert!(thread < threads, "bad thread index");
        // Threads share the pattern but draw from distinct RNG streams.
        Box::new(SynthTrace::new(
            self,
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(thread) + 1)),
        ))
    }
}

/// How a phase picks element indices, with every per-phase constant of
/// its [`Pattern`] worked out once.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// Sequential: `pos` is the running position modulo the array
    /// length, advanced by `step` (the stride, at least 1, reduced
    /// modulo the length), so each index is the position the unreduced
    /// walk would reach, taken modulo the length.
    Sequential { pos: u64, step: u64 },
    /// Uniform: one draw modulo the array length.
    Uniform,
    /// Zipf over more than one element.
    Zipf(ZipfCdf),
    /// Zipf over a one-element array: always element 0, with no draw.
    First,
    /// Pointer chase: a multiplicative-congruential walk.
    Chase { pos: u64 },
}

/// Zipf's approximate inverse CDF over `n > 1` elements with exponent
/// θ (harmonic weights `1/(k+1)^θ`), exact enough for workload shaping,
/// with its powers of `n` hoisted out of the draw. A uniform `u` maps to
/// the rank `base^exp · mul − sub`, one `powf` for all three forms (a
/// bounded Pareto's inverse below θ = 1, a heavy-tail form from θ = 1):
/// - θ < 1: `(u · n^(1−θ))^(1/(1−θ)) − 1`;
/// - θ = 1: `n^u − 1`;
/// - θ > 1: `u^(1/(1−θ)) · n`.
///
/// Multiplying by 1 and subtracting 0 are exact, so every form gives
/// the value its own expression gives.
#[derive(Debug, Clone, Copy)]
struct ZipfCdf {
    /// Whether θ = 1 (within 1e-9), where `n` is the base and `u` the
    /// exponent.
    harmonic: bool,
    /// `n` as a float.
    n: f64,
    /// `n^(1−θ)` up to θ = 1, else 1.
    scale: f64,
    /// `1/(1−θ)`.
    exp: f64,
    /// `n` above θ = 1, else 1.
    mul: f64,
    /// 1 up to θ = 1, else 0.
    sub: f64,
    /// The last element, `n − 1`.
    last: u64,
}

impl ZipfCdf {
    fn new(len: u64, theta: f64) -> Self {
        let n = len as f64;
        let harmonic = (theta - 1.0).abs() < 1e-9;
        let heavy = theta > 1.0 && !harmonic;
        ZipfCdf {
            harmonic,
            n,
            scale: if heavy { 1.0 } else { n.powf(1.0 - theta) },
            exp: 1.0 / (1.0 - theta),
            mul: if heavy { n } else { 1.0 },
            sub: if heavy { 0.0 } else { 1.0 },
            last: len - 1,
        }
    }

    /// The element a uniform draw `u` in (0, 1) picks: its rank,
    /// clamped to the array.
    #[inline]
    fn index(&self, u: f64) -> u64 {
        let (base, exp) = if self.harmonic {
            (self.n, u)
        } else {
            (u * self.scale, self.exp)
        };
        let rank = base.powf(exp) * self.mul - self.sub;
        (rank.max(0.0) as u64).min(self.last)
    }
}

struct PhaseState {
    array: ArrayLayout,
    draw: Draw,
    write_ratio_pct: u64,
    /// Accesses this phase has still to emit: its budget, less what it
    /// emitted; 0 throughout for an empty array.
    left: u64,
    /// `budget.max(1)`: the phase's share still to come is
    /// `left / weight`.
    weight: u64,
}

impl PhaseState {
    fn new(array: ArrayLayout, pattern: Pattern, write_ratio_pct: u8) -> Self {
        let n = array.len();
        let (draw, budget) = match pattern {
            Pattern::Sequential { stride, count } => (
                Draw::Sequential {
                    pos: 0,
                    step: stride.max(1) % n.max(1),
                },
                count,
            ),
            Pattern::UniformRandom { count } => (Draw::Uniform, count),
            Pattern::Zipf { count, .. } if n <= 1 => (Draw::First, count),
            Pattern::Zipf { count, exponent } => (Draw::Zipf(ZipfCdf::new(n, exponent)), count),
            Pattern::PointerChase { count } => (Draw::Chase { pos: 0 }, count),
        };
        PhaseState {
            array,
            draw,
            write_ratio_pct: u64::from(write_ratio_pct),
            left: if n > 0 { budget } else { 0 },
            weight: budget.max(1),
        }
    }

    /// Whether this phase's share still to come is at least `other`'s:
    /// `left / weight ≥ other.left / other.weight`, cross-multiplied so
    /// that it is exact.
    #[inline]
    fn level_or_behind(&self, other: &PhaseState) -> bool {
        u128::from(self.left) * u128::from(other.weight)
            >= u128::from(other.left) * u128::from(self.weight)
    }

    /// Appends this phase's next `k` accesses to `out`. A Zipf access
    /// gets element 0 for now and its uniform draw goes on `zipf`,
    /// tagged with its place in `out` and with `me`, this phase's index.
    #[inline]
    fn emit(
        &mut self,
        me: usize,
        k: usize,
        rng: &mut StdRng,
        out: &mut Vec<MemoryAccess>,
        zipf: &mut Vec<ZipfDraw>,
    ) {
        let (array, pct) = (self.array, self.write_ratio_pct);
        let n = array.len();
        match &mut self.draw {
            Draw::Sequential { pos, step } => emit_run(out, k, rng, array, pct, |_| {
                let idx = *pos;
                *pos += *step;
                if *pos >= n {
                    *pos -= n;
                }
                idx
            }),
            Draw::Uniform => emit_run(out, k, rng, array, pct, |rng| rng.next_u64() % n),
            Draw::Zipf(_) => {
                let mut at = out.len();
                emit_run(out, k, rng, array, pct, |rng| {
                    let u = rng.random::<f64>().max(1e-12);
                    zipf.push(ZipfDraw { at, phase: me, u });
                    at += 1;
                    0
                })
            }
            Draw::First => emit_run(out, k, rng, array, pct, |_| 0),
            Draw::Chase { pos } => emit_run(out, k, rng, array, pct, |_| {
                *pos = pos
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *pos % n
            }),
        }
    }
}

/// A Zipf access whose element is still to be worked out: its place in
/// the piece's buffer, its phase and its uniform draw.
struct ZipfDraw {
    at: usize,
    phase: usize,
    u: f64,
}

/// Appends `k` accesses to `array`, each at the element `index` draws
/// and then a write with probability `pct`%: one loop per [`Draw`] arm.
#[inline(always)]
fn emit_run(
    out: &mut Vec<MemoryAccess>,
    k: usize,
    rng: &mut StdRng,
    array: ArrayLayout,
    pct: u64,
    mut index: impl FnMut(&mut StdRng) -> u64,
) {
    for _ in 0..k {
        let addr = array.addr_of(index(rng));
        // `random_range(0..100u8)` is this draw modulo 100.
        out.push(if rng.next_u64() % 100 < pct {
            MemoryAccess::write(addr)
        } else {
            MemoryAccess::read(addr)
        });
    }
}

/// One thread's synthetic trace.
///
/// Phases are interleaved by their shares still to come: each access
/// goes to the phase with the largest `left / weight`, the last of
/// several that tie, so phases deplete together and each phase's share
/// of the stream matches its budget. A phase keeps the pick for a run
/// of accesses, until its share falls below its rival's (the phase that
/// would be picked without it), so [`refill`](TraceSource::refill)
/// scans the phases once per run and generates each run in a loop of
/// its own [`Draw`] arm, with the RNG in a local. The piece's Zipf
/// elements are worked out after the rest of it, in one loop of `powf`
/// calls that holds no RNG state, which runs faster than the same calls
/// inside the run loop (EXPERIMENTS.md has the rates).
struct SynthTrace {
    phases: Vec<PhaseState>,
    rng: StdRng,
    /// The piece's Zipf accesses, in the order they were drawn.
    zipf: Vec<ZipfDraw>,
}

impl SynthTrace {
    fn new(w: &SyntheticWorkload, seed: u64) -> Self {
        let phases = w
            .phases
            .iter()
            .map(|p| PhaseState::new(w.arrays[p.array], p.pattern, p.write_ratio_pct))
            .collect();
        SynthTrace {
            phases,
            rng: StdRng::seed_from_u64(seed),
            zipf: Vec::new(),
        }
    }

    /// The phase the interleave serves next and the length of its run,
    /// at most `room`; `None` once every phase is spent.
    fn next_run(&self, room: usize) -> Option<(usize, usize)> {
        let phases = &self.phases;
        let mut pick = 0;
        for (i, p) in phases.iter().enumerate().skip(1) {
            if p.level_or_behind(&phases[pick]) {
                pick = i;
            }
        }
        let p = &phases[pick];
        if p.left == 0 {
            return None;
        }
        // The rival, picked by the same rule among the other phases, is
        // the only one the pick must stay ahead of: a rival after
        // `pick` wins a tie (`strict`), one before it loses it. With no
        // rival the run lasts while `pick` has accesses left.
        let (mut rival, mut strict) = (None::<&PhaseState>, false);
        for (i, q) in phases.iter().enumerate().filter(|&(i, _)| i != pick) {
            if rival.is_none_or(|r| q.level_or_behind(r)) {
                (rival, strict) = (Some(q), i > pick);
            }
        }
        let (rival_left, rival_weight) = rival.map_or((0, 1), |r| (r.left, r.weight));
        // `pick` keeps the next access while `left · rival_weight`
        // reaches `floor`: the rival's `rival_left · weight` (plus one
        // to win a tie it would lose) and `rival_weight` (a left of 1).
        let step = u128::from(rival_weight);
        let floor = (u128::from(rival_left) * u128::from(p.weight) + u128::from(strict)).max(step);
        let mut next = u128::from(p.left - 1) * step;
        let mut run = 1;
        while run < room && next >= floor {
            run += 1;
            next -= step;
        }
        Some((pick, run))
    }
}

impl TraceSource for SynthTrace {
    fn refill(&mut self, out: &mut Vec<MemoryAccess>) -> bool {
        let mut rng = self.rng.clone();
        let mut room = PIECE_LEN;
        out.reserve(room);
        let more = loop {
            if room == 0 {
                break true;
            }
            let Some((pick, run)) = self.next_run(room) else {
                break false;
            };
            let p = &mut self.phases[pick];
            p.left -= run as u64;
            p.emit(pick, run, &mut rng, out, &mut self.zipf);
            room -= run;
        };
        self.rng = rng;
        for ZipfDraw { at, phase, u } in self.zipf.drain(..) {
            let p = &self.phases[phase];
            if let Draw::Zipf(cdf) = &p.draw {
                out[at].addr = p.array.addr_of(cdf.index(u));
            }
        }
        more
    }
}

/// Scale knob for the synthetic presets: total accesses and footprints
/// multiply with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthScale {
    /// Footprint multiplier ×1 = test scale (tens of MiB).
    pub footprint_mul: u64,
    /// Access-count multiplier.
    pub accesses_mul: u64,
}

impl SynthScale {
    /// Tiny scale for unit tests.
    pub const TEST: SynthScale = SynthScale {
        footprint_mul: 1,
        accesses_mul: 1,
    };

    /// Default benchmark scale.
    pub const BENCH: SynthScale = SynthScale {
        footprint_mul: 8,
        accesses_mul: 8,
    };
}

const MB: u64 = 1 << 20;

/// `canneal` (PARSEC): simulated-annealing netlist swaps — uniformly
/// random small-element reads over a large netlist, highly TLB-sensitive
/// with a near-linear utility curve.
pub fn canneal(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("canneal", seed);
    let elements = 96 * MB * scale.footprint_mul / 32;
    let netlist = b.array(32, elements);
    let locs = b.array(16, elements / 2);
    b.phase(
        netlist,
        Pattern::UniformRandom {
            count: 6_000_000 * scale.accesses_mul,
        },
        10,
    );
    b.phase(
        locs,
        Pattern::UniformRandom {
            count: 2_000_000 * scale.accesses_mul,
        },
        30,
    );
    b.build()
}

/// `omnetpp` (SPEC): discrete-event network simulation — Zipf-skewed
/// module/event accesses over a medium heap plus a sequential event log.
pub fn omnetpp(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("omnetpp", seed);
    let heap = b.array(64, 48 * MB * scale.footprint_mul / 64);
    let log = b.array(16, 8 * MB * scale.footprint_mul / 16);
    b.phase(
        heap,
        Pattern::Zipf {
            count: 6_000_000 * scale.accesses_mul,
            exponent: 0.7,
        },
        25,
    );
    b.phase(
        log,
        Pattern::Sequential {
            stride: 1,
            count: 2_000_000 * scale.accesses_mul,
        },
        50,
    );
    b.build()
}

/// `xalancbmk` (SPEC): XSLT processing — pointer chasing through a DOM
/// arena with Zipf-popular templates.
pub fn xalancbmk(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("xalancbmk", seed);
    let dom = b.array(48, 64 * MB * scale.footprint_mul / 48);
    let templates = b.array(64, 4 * MB * scale.footprint_mul / 64);
    b.phase(
        dom,
        Pattern::PointerChase {
            count: 5_000_000 * scale.accesses_mul,
        },
        5,
    );
    b.phase(
        templates,
        Pattern::Zipf {
            count: 3_000_000 * scale.accesses_mul,
            exponent: 1.0,
        },
        0,
    );
    b.build()
}

/// `dedup` (PARSEC): streaming compression — dominated by sequential
/// chunk reads plus lookups in a hash table small enough to stay
/// TLB-resident. Nearly TLB-insensitive (the paper's flat curve).
pub fn dedup(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("dedup", seed);
    let stream = b.array(64, 96 * MB * scale.footprint_mul / 64);
    // The hash table stays a sliver of the footprint so it remains
    // TLB-resident (as the real dedup's hot table effectively is).
    let table = b.array(32, 32 * 1024 * scale.footprint_mul / 32);
    b.phase(
        stream,
        Pattern::Sequential {
            stride: 1,
            count: 7_000_000 * scale.accesses_mul,
        },
        20,
    );
    b.phase(
        table,
        Pattern::UniformRandom {
            count: 1_000_000 * scale.accesses_mul,
        },
        40,
    );
    b.build()
}

/// `mcf` (SPEC): network-simplex — scattered arc accesses but with strong
/// short-range locality after the benchmark's cache-oriented layout;
/// low TLB sensitivity in the paper.
pub fn mcf(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("mcf", seed);
    let arcs = b.array(64, 80 * MB * scale.footprint_mul / 64);
    let nodes = b.array(64, 64 * 1024 * scale.footprint_mul / 64);
    // Mostly strided sweeps (pricing loops) with a modest random component.
    b.phase(
        arcs,
        Pattern::Sequential {
            stride: 3,
            count: 6_000_000 * scale.accesses_mul,
        },
        15,
    );
    b.phase(
        nodes,
        Pattern::Zipf {
            count: 2_000_000 * scale.accesses_mul,
            exponent: 0.9,
        },
        15,
    );
    b.build()
}

/// **Extension** (not in the paper's app set): GUPS / RandomAccess — the
/// HPC kernel with pure uniform random 8-byte updates over a giant
/// table. The most TLB-hostile pattern possible; every region is an
/// equally good promotion candidate, so its utility curve is linear.
pub fn gups(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("gups", seed);
    let table = b.array(8, 128 * MB * scale.footprint_mul / 8);
    b.phase(
        table,
        Pattern::UniformRandom {
            count: 8_000_000 * scale.accesses_mul,
        },
        50,
    );
    b.build()
}

/// **Extension**: a database-style hash join — a sequential probe-side
/// scan against Zipf-skewed lookups into a build-side hash table that
/// exceeds TLB reach. The class of workload whose THP pain the paper's
/// introduction catalogues (databases often disable THP because greedy
/// allocation bloats them; selective promotion is the fix).
pub fn hashjoin(scale: SynthScale, seed: u64) -> SyntheticWorkload {
    let mut b = SyntheticBuilder::new("hashjoin", seed);
    let probe = b.array(32, 64 * MB * scale.footprint_mul / 32);
    let build = b.array(64, 48 * MB * scale.footprint_mul / 64);
    b.phase(
        probe,
        Pattern::Sequential {
            stride: 1,
            count: 3_000_000 * scale.accesses_mul,
        },
        0,
    );
    b.phase(
        build,
        Pattern::Zipf {
            count: 3_000_000 * scale.accesses_mul,
            exponent: 0.6,
        },
        5,
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::StreamIter;
    use hpage_types::AccessKind;
    use proptest::prelude::*;

    fn assert_in_regions(w: &SyntheticWorkload, n: usize) {
        let regions = w.regions();
        for acc in w.trace().take(n) {
            assert!(
                regions.iter().any(|r| r.contains(acc.addr)),
                "access {} outside layout",
                acc.addr
            );
        }
    }

    #[test]
    fn presets_construct_and_stay_in_bounds() {
        for w in [
            canneal(SynthScale::TEST, 1),
            omnetpp(SynthScale::TEST, 1),
            xalancbmk(SynthScale::TEST, 1),
            dedup(SynthScale::TEST, 1),
            mcf(SynthScale::TEST, 1),
            gups(SynthScale::TEST, 1),
            hashjoin(SynthScale::TEST, 1),
        ] {
            assert!(w.footprint_bytes() > 0);
            assert_in_regions(&w, 20_000);
        }
    }

    #[test]
    fn trace_length_matches_budgets() {
        let mut b = SyntheticBuilder::new("t", 0);
        let a = b.array(8, 100);
        b.phase(
            a,
            Pattern::Sequential {
                stride: 1,
                count: 50,
            },
            0,
        );
        b.phase(a, Pattern::UniformRandom { count: 30 }, 0);
        let w = b.build();
        assert_eq!(w.trace().count(), 80);
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let w1 = canneal(SynthScale::TEST, 7);
        let w2 = canneal(SynthScale::TEST, 7);
        let w3 = canneal(SynthScale::TEST, 8);
        let t1: Vec<_> = w1.trace().take(1000).collect();
        let t2: Vec<_> = w2.trace().take(1000).collect();
        let t3: Vec<_> = w3.trace().take(1000).collect();
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn threads_get_distinct_streams() {
        let w = canneal(SynthScale::TEST, 7);
        let t0: Vec<_> = StreamIter::new(w.thread_stream(0, 2)).take(500).collect();
        let t1: Vec<_> = StreamIter::new(w.thread_stream(1, 2)).take(500).collect();
        assert_ne!(t0, t1);
    }

    #[test]
    fn write_ratio_honored_roughly() {
        let mut b = SyntheticBuilder::new("t", 3);
        let a = b.array(8, 1000);
        b.phase(a, Pattern::UniformRandom { count: 10_000 }, 50);
        let w = b.build();
        let writes = w.trace().filter(|a| a.kind == AccessKind::Write).count();
        assert!((4000..6000).contains(&writes), "writes = {writes}");
    }

    #[test]
    fn zipf_skews_head() {
        let mut b = SyntheticBuilder::new("t", 3);
        let a = b.array(8, 10_000);
        b.phase(
            a,
            Pattern::Zipf {
                count: 50_000,
                exponent: 0.9,
            },
            0,
        );
        let w = b.build();
        let base = w.regions()[0].start().raw();
        let head = w
            .trace()
            .filter(|acc| (acc.addr.raw() - base) / 8 < 1000)
            .count();
        // Top 10% of elements should receive far more than 10% of accesses.
        assert!(head > 15_000, "head accesses = {head}");
    }

    #[test]
    fn sequential_walks_in_order() {
        let mut b = SyntheticBuilder::new("t", 0);
        let a = b.array(8, 16);
        b.phase(
            a,
            Pattern::Sequential {
                stride: 1,
                count: 16,
            },
            0,
        );
        let w = b.build();
        let addrs: Vec<u64> = w.trace().map(|a| a.addr.raw()).collect();
        assert!(addrs.windows(2).all(|p| p[1] == p[0] + 8));
    }

    #[test]
    fn pointer_chase_covers_array() {
        let mut b = SyntheticBuilder::new("t", 0);
        let a = b.array(8, 64);
        b.phase(a, Pattern::PointerChase { count: 1000 }, 0);
        let w = b.build();
        let distinct: std::collections::HashSet<u64> = w.trace().map(|a| a.addr.raw()).collect();
        assert!(distinct.len() > 30, "chase visited {}", distinct.len());
    }

    #[test]
    fn dedup_hash_table_is_tiny() {
        let w = dedup(SynthScale::TEST, 1);
        // Second region (the hash table) must be a small fraction of the
        // stream so the workload stays TLB-insensitive.
        let regions = w.regions();
        assert!(regions[1].len() * 16 < regions[0].len());
    }

    #[test]
    fn gups_is_maximally_tlb_hostile() {
        // GUPS touches its whole table uniformly; in any window the
        // distinct-page count approaches the access count until pages
        // repeat.
        let w = gups(SynthScale::TEST, 2);
        let distinct: std::collections::HashSet<u64> =
            w.trace().take(20_000).map(|a| a.addr.raw() >> 12).collect();
        assert!(
            distinct.len() > 10_000,
            "gups should spread: {}",
            distinct.len()
        );
    }

    #[test]
    fn hashjoin_mixes_stream_and_skew() {
        let w = hashjoin(SynthScale::TEST, 2);
        let regions = w.regions();
        assert_eq!(regions.len(), 2);
        let mut in_probe = 0u64;
        let mut in_build = 0u64;
        for a in w.trace().take(50_000) {
            if regions[0].contains(a.addr) {
                in_probe += 1;
            } else if regions[1].contains(a.addr) {
                in_build += 1;
            }
        }
        // Equal phase budgets => roughly even interleave.
        assert!(in_probe > 15_000 && in_build > 15_000);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_build_panics() {
        let b = SyntheticBuilder::new("t", 0);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "write ratio")]
    fn bad_write_ratio_panics() {
        let mut b = SyntheticBuilder::new("t", 0);
        let a = b.array(8, 10);
        b.phase(a, Pattern::UniformRandom { count: 1 }, 101);
    }

    /// The oracle for the piece generator, one access at a time: each
    /// access goes to the phase with the largest remaining budget
    /// fraction, worked out as an `f64` (the last of several that tie),
    /// and draws its index from its [`Pattern`] directly: `%` for the
    /// remainders, a stride product for the sequential walk, and each
    /// Zipf form's own expression.
    struct Reference {
        phases: Vec<RefPhase>,
        rng: StdRng,
    }

    struct RefPhase {
        array: ArrayLayout,
        pattern: Pattern,
        write_ratio_pct: u8,
        budget: u64,
        emitted: u64,
        chase: u64,
    }

    impl Reference {
        fn new(w: &SyntheticWorkload, thread: u32) -> Self {
            let phases = w
                .phases
                .iter()
                .map(|p| RefPhase {
                    array: w.arrays[p.array],
                    pattern: p.pattern,
                    write_ratio_pct: p.write_ratio_pct,
                    budget: match p.pattern {
                        Pattern::Sequential { count, .. }
                        | Pattern::UniformRandom { count }
                        | Pattern::Zipf { count, .. }
                        | Pattern::PointerChase { count } => count,
                    },
                    emitted: 0,
                    chase: 0,
                })
                .collect();
            let seed = w.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(thread) + 1);
            Reference {
                phases,
                rng: StdRng::seed_from_u64(seed),
            }
        }
    }

    impl Iterator for Reference {
        type Item = MemoryAccess;

        fn next(&mut self) -> Option<MemoryAccess> {
            let (mut pick, mut best) = (0, 0.0);
            for (i, p) in self.phases.iter().enumerate() {
                let remaining = if p.budget == 0 || p.array.is_empty() {
                    0.0
                } else {
                    (p.budget - p.emitted) as f64 / p.budget as f64
                };
                if remaining >= best {
                    (pick, best) = (i, remaining);
                }
            }
            if best == 0.0 {
                return None;
            }
            let p = &mut self.phases[pick];
            let nth = p.emitted;
            p.emitted += 1;
            let n = p.array.len();
            let idx = match p.pattern {
                Pattern::Sequential { stride, .. } => {
                    (u128::from(nth) * u128::from(stride.max(1)) % u128::from(n)) as u64
                }
                Pattern::UniformRandom { .. } => self.rng.random_range(0..n),
                Pattern::Zipf { .. } if n == 1 => 0,
                Pattern::Zipf { exponent, .. } => {
                    let u: f64 = self.rng.random::<f64>().max(1e-12);
                    let n_f = n as f64;
                    let rank = if (exponent - 1.0).abs() < 1e-9 {
                        n_f.powf(u) - 1.0
                    } else if exponent < 1.0 {
                        (u * n_f.powf(1.0 - exponent)).powf(1.0 / (1.0 - exponent)) - 1.0
                    } else {
                        u.powf(1.0 / (1.0 - exponent)) * n_f
                    };
                    (rank.max(0.0) as u64).min(n - 1)
                }
                Pattern::PointerChase { .. } => {
                    p.chase = p
                        .chase
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    p.chase % n
                }
            };
            let addr = p.array.addr_of(idx);
            Some(if self.rng.random_range(0..100u8) < p.write_ratio_pct {
                MemoryAccess::write(addr)
            } else {
                MemoryAccess::read(addr)
            })
        }
    }

    /// Accesses of each stream the oracle test compares: all of a small
    /// workload, a prefix of one with large budgets.
    const ORACLE_PREFIX: usize = 3000;

    /// A workload from raw draws: per phase, an arm, an array length
    /// class (empty, one element, small, large), a budget class (none,
    /// the shared base, a multiple of it, any below the bound), a write
    /// ratio of 0, 37 or 100%, and a parameter (stride or exponent).
    fn oracle_workload(
        seed: u64,
        base: u64,
        phases: &[(u8, u8, u8, u64, u8, u64)],
    ) -> SyntheticWorkload {
        let mut b = SyntheticBuilder::new("oracle", seed);
        for &(arm, len_class, budget_class, raw, write_class, param) in phases {
            let len = match len_class {
                0 => 0,
                1 => 1,
                2 => 2 + raw % 100,
                _ => 1 + raw % (1 << 36),
            };
            let count = match budget_class {
                0 => 0,
                1 => base,
                2 => base * (2 + param % 4),
                _ => raw % base.max(2) + 1,
            };
            let pattern = match arm {
                0 => Pattern::Sequential {
                    stride: if param & 1 == 0 {
                        param % 5
                    } else {
                        param >> 1
                    },
                    count,
                },
                1 => Pattern::UniformRandom { count },
                2 => Pattern::Zipf {
                    count,
                    exponent: [0.0, 0.7, 0.9, 1.0, 1.3][(param % 5) as usize],
                },
                _ => Pattern::PointerChase { count },
            };
            let array = b.array(8, len);
            b.phase(array, pattern, [0, 37, 100][usize::from(write_class)]);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The piece generator's stream equals the one-at-a-time f64
        /// reference's, whatever window size reads it: over 1–4 phases
        /// of every arm, empty and one-element arrays, budgets below
        /// 2^26 that tie (equal budgets and exact multiples of a shared
        /// base) and ones that do not.
        #[test]
        fn pieces_match_the_f64_reference(
            seed in any::<u64>(),
            large in any::<bool>(),
            base_raw in any::<u64>(),
            phases in prop::collection::vec(
                (0u8..4, 0u8..4, 0u8..4, any::<u64>(), 0u8..3, any::<u64>()),
                1..5,
            ),
        ) {
            // Large bases make budgets up to 5 · 2^23, below 2^26; small
            // ones let the whole stream, its end included, be compared.
            let base = if large { base_raw % (1 << 23) } else { base_raw % 40 };
            let w = oracle_workload(seed, base, &phases);
            let want: Vec<MemoryAccess> = Reference::new(&w, 0).take(ORACLE_PREFIX).collect();
            for window in [1, 7, 256] {
                let mut stream = w.thread_stream(0, 1);
                let mut got = Vec::new();
                while got.len() < ORACLE_PREFIX {
                    let piece = stream.next_window(window);
                    got.extend_from_slice(piece);
                    if piece.len() < window {
                        break;
                    }
                }
                got.truncate(ORACLE_PREFIX);
                let first = got.iter().zip(&want).position(|(a, b)| a != b);
                prop_assert!(
                    got == want,
                    "windows of {}: first difference at {:?}, {} against {} accesses, phases {:?}",
                    window,
                    first,
                    got.len(),
                    want.len(),
                    phases
                );
            }
        }
    }
}
