//! Generated-input tests for the text format a user hands the
//! simulator: fault plans (`hpsim --faults`).
//!
//! Each case starts from a valid document and applies a few random
//! byte-level edits: deletions, insertions of JSON-significant bytes
//! and digits, overwrites, duplicated slices and truncation. Whatever
//! comes out, parsing must return a typed error or a fault plan that
//! holds up: it validates, drives an injector over 64 intervals and
//! round-trips through its JSON form. A panic anywhere fails the case.

use hpage::faults::{FaultInjector, FaultPlan};
use hpage::types::derive_seed;
use proptest::prelude::*;

/// Bytes the edits insert: JSON structure, quotes, escapes, digits,
/// signs, letters of the format's keywords, and a multi-byte character.
const ALPHABET: &[u8] = b"{}[]:,\"\\ \n-+.0123456789eEtrufalsn_\xc3\xa9";

/// `text` with `edits` random edits applied, drawn from `seed`.
fn mutate(text: &[u8], seed: u64, edits: usize) -> Vec<u8> {
    let mut out = text.to_vec();
    let mut rng = seed;
    let mut next = move |bound: usize| {
        rng = derive_seed(rng, "generated-input");
        (rng % bound.max(1) as u64) as usize
    };
    for _ in 0..edits {
        let at = next(out.len() + 1);
        match next(6) {
            0 => {
                let end = (at + 1 + next(8)).min(out.len());
                out.drain(at.min(end)..end);
            }
            1 => {
                let byte = ALPHABET[next(ALPHABET.len())];
                out.insert(at, byte);
            }
            2 if at < out.len() => out[at] = ALPHABET[next(ALPHABET.len())],
            3 => {
                let end = (at + 1 + next(24)).min(out.len());
                let slice = out[at.min(end)..end].to_vec();
                let to = next(out.len() + 1);
                out.splice(to..to, slice);
            }
            4 => out.truncate(at),
            _ => {
                // Rewrite one number with a random digit run (zero, or
                // past the u8 and u64 ranges), so many edits still parse.
                let numbers: Vec<usize> = (0..out.len())
                    .filter(|&i| out[i].is_ascii_digit())
                    .collect();
                let start = numbers.get(next(numbers.len())).copied().unwrap_or(at);
                let end = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let digits: Vec<u8> = (0..1 + next(24)).map(|_| b'0' + next(10) as u8).collect();
                out.splice(start..end, digits);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A mutated fault plan parses to a typed error or to a plan that
    /// validates, runs an injector over 64 intervals and round-trips.
    #[test]
    fn mutated_fault_plans_error_or_hold(seed in any::<u64>(), edits in 1usize..6) {
        let base = include_bytes!("../examples/chaos.json");
        let text = String::from_utf8_lossy(&mutate(base, seed, edits)).into_owned();
        if let Ok(plan) = FaultPlan::from_json(&text) {
            prop_assert!(plan.validate().is_ok(), "{}", text);
            prop_assert_eq!(FaultPlan::from_json(&plan.to_json()).ok(), Some(plan.clone()));
            let mut injector = FaultInjector::new(plan).expect("a parsed plan validates");
            for interval in 0..64 {
                injector.effects_at(interval);
            }
        }
    }
}
