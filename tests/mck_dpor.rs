//! DPOR reduction regression (DESIGN §13).
//!
//! Pins the model checker's partial-order reduction on the one workload
//! whose schedule space is small enough to count by hand:
//! [`grant_request_collision`] — `0` requests `1`; while `1`'s grant is
//! on the wire back to `0`, `2` requests `0`, and both messages land at
//! `0` on the same tick.
//!
//! Hand count of the brute-force space (FIFO eligibility filter on):
//!
//! * the three `Start` events share tick 0 and touch distinct nodes —
//!   `3! = 6` orderings, all equivalent (DPOR explores one);
//! * the grant `1→0` and the request `2→0` tie at the same tick with the
//!   same receiver — the single genuine race, `×2`;
//! * every other tick has at most one eligible event per receiver.
//!
//! Brute force must therefore enumerate exactly `6 × 2 = 12` schedules
//! and DPOR exactly `2`, with identical (clean) verdict sets. Runs in
//! tier-1 so any change to the commutation relation, the sleep sets, or
//! the eligibility filter shows up as a count drift here.
//!
//! [`grant_request_collision`]: cmh_core::explore::configs::grant_request_collision

use cmh_core::explore::configs;
use simnet::explore::Explorer;

#[test]
fn dpor_count_matches_hand_analysis() {
    let dpor = Explorer::default().explore(|| configs::grant_request_collision(7));
    let brute = Explorer {
        reduction: false,
        ..Explorer::default()
    };
    let brute = brute.explore(|| configs::grant_request_collision(7));

    assert!(dpor.clean(), "dpor violations: {:?}", dpor.violations);
    assert!(brute.clean(), "brute violations: {:?}", brute.violations);
    assert!(!dpor.capped && !brute.capped);

    assert_eq!(brute.schedules, 12, "3! start orders × one two-way race");
    assert_eq!(dpor.schedules, 2, "one genuine race ⇒ two schedules");
    assert!(
        dpor.schedules < brute.schedules,
        "reduction must be strict: {} vs {}",
        dpor.schedules,
        brute.schedules
    );

    // Identical verdict sets: both modes see every behaviour class, so a
    // violation found by one must be found by the other. Here both are
    // clean; the mutation harness (the `mutations` tests of cmh-core's
    // and cmh-ddb's explore modules, and `xtask mck`) covers the
    // violating side.
    assert_eq!(
        dpor.violations.is_empty(),
        brute.violations.is_empty(),
        "dpor and brute force disagree on the verdict"
    );
}

#[test]
fn dpor_and_brute_agree_on_stale_probe() {
    let dpor = Explorer::default().explore(|| configs::stale_probe(7));
    let brute = Explorer {
        reduction: false,
        ..Explorer::default()
    };
    let brute = brute.explore(|| configs::stale_probe(7));
    assert!(dpor.clean() && brute.clean());
    assert!(dpor.schedules < brute.schedules);
}
