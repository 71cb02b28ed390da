//! End-to-end explorer tests: the seeded-bug models must fail with a
//! replayable schedule, and the faithful models must survive the *same*
//! scenarios. This is the evidence that green explorations of the mirrored
//! algorithms mean something.

use std::sync::{Arc, Mutex};

use lfrt_interleave::models::buggy::{AbaStack, RacyStack, TornNbw};
use lfrt_interleave::models::{ModelNbw, ModelTreiberStack};
use lfrt_interleave::{explore, replay, Config, FailureKind, Plan};

/// A per-thread result cell, written after a thread's last model step.
type Cell = Arc<Mutex<Vec<u64>>>;

fn cell() -> Cell {
    Arc::new(Mutex::new(Vec::new()))
}

fn conservation_check(pushed: Vec<u64>, popped: Vec<Cell>, remaining: Vec<u64>) {
    let mut seen: Vec<u64> = popped
        .iter()
        .flat_map(|c| c.lock().unwrap().clone())
        .chain(remaining)
        .collect();
    seen.sort_unstable();
    let mut expected = pushed;
    expected.sort_unstable();
    assert_eq!(seen, expected, "elements lost or duplicated");
}

/// Two overlapping pops on the store-instead-of-CAS stack can both detach
/// the same node; on the real protocol they cannot.
mod racy_pop {
    use super::*;

    fn scenario(stack_is_buggy: bool) -> Plan {
        // Shared setup: stack holds [1, 2] (2 on top), two threads pop once.
        let (pop0, pop1) = (cell(), cell());
        let (buggy, good): (Option<Arc<RacyStack>>, Option<Arc<ModelTreiberStack>>) =
            if stack_is_buggy {
                (Some(Arc::new(RacyStack::new())), None)
            } else {
                (None, Some(Arc::new(ModelTreiberStack::new())))
            };
        let push = |v: u64| match (&buggy, &good) {
            (Some(s), _) => s.push(v),
            (_, Some(s)) => s.push(v),
            _ => unreachable!(),
        };
        push(1);
        push(2);
        let mut plan = Plan::new();
        for results in [&pop0, &pop1] {
            let results = Arc::clone(results);
            let (buggy, good) = (buggy.clone(), good.clone());
            plan = plan.thread(move || {
                let popped = match (&buggy, &good) {
                    (Some(s), _) => s.pop(),
                    (_, Some(s)) => s.pop(),
                    _ => unreachable!(),
                };
                results.lock().unwrap().extend(popped);
            });
        }
        plan.check(move || {
            let remaining = match (&buggy, &good) {
                (Some(s), _) => s.drain_plain(),
                (_, Some(s)) => s.drain_plain(),
                _ => unreachable!(),
            };
            conservation_check(vec![1, 2], vec![pop0.clone(), pop1.clone()], remaining);
        })
    }

    #[test]
    fn buggy_stack_duplicates_an_element() {
        let report = explore(&Config::exhaustive("racy-pop-buggy"), || scenario(true));
        let failure = report.assert_fails();
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(
            failure.message.contains("lost or duplicated"),
            "{failure:?}"
        );
        // The printed schedule replays to the same failure, deterministically.
        let schedule = failure.schedule.clone();
        let err = std::panic::catch_unwind(move || replay(&schedule, || scenario(true)))
            .expect_err("replay must reproduce the failure");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lost or duplicated"), "{msg}");
    }

    #[test]
    fn real_protocol_survives_the_same_scenario() {
        explore(&Config::exhaustive("racy-pop-good"), || scenario(false)).assert_ok();
    }
}

/// The classic ABA: a pop parked between reading `next` and its CAS, while
/// the other thread pops twice and pushes a recycled node carrying the same
/// index. Immediate reuse corrupts the stack; the append-only arena (the
/// model's epoch reclamation) is immune by construction.
mod aba {
    use super::*;

    /// Stack [1, 2] (2 on top); t0 pops once; t1 pops twice then pushes 3.
    fn buggy_scenario() -> Plan {
        let stack = Arc::new(AbaStack::new());
        stack.push(1);
        stack.push(2);
        let (pop0, pop1) = (cell(), cell());
        let s0 = Arc::clone(&stack);
        let r0 = Arc::clone(&pop0);
        let s1 = Arc::clone(&stack);
        let r1 = Arc::clone(&pop1);
        Plan::new()
            .thread(move || {
                let popped = s0.pop();
                r0.lock().unwrap().extend(popped);
            })
            .thread(move || {
                let mut out = Vec::new();
                out.extend(s1.pop());
                out.extend(s1.pop());
                s1.push(3);
                r1.lock().unwrap().extend(out);
            })
            .check(move || {
                conservation_check(
                    vec![1, 2, 3],
                    vec![pop0.clone(), pop1.clone()],
                    stack.drain_plain(),
                );
            })
    }

    fn good_scenario() -> Plan {
        let stack = Arc::new(ModelTreiberStack::new());
        stack.push(1);
        stack.push(2);
        let (pop0, pop1) = (cell(), cell());
        let s0 = Arc::clone(&stack);
        let r0 = Arc::clone(&pop0);
        let s1 = Arc::clone(&stack);
        let r1 = Arc::clone(&pop1);
        Plan::new()
            .thread(move || {
                let popped = s0.pop();
                r0.lock().unwrap().extend(popped);
            })
            .thread(move || {
                let mut out = Vec::new();
                out.extend(s1.pop());
                out.extend(s1.pop());
                s1.push(3);
                r1.lock().unwrap().extend(out);
            })
            .check(move || {
                conservation_check(
                    vec![1, 2, 3],
                    vec![pop0.clone(), pop1.clone()],
                    stack.drain_plain(),
                );
            })
    }

    #[test]
    fn immediate_reuse_is_caught_and_replayable() {
        let report = explore(&Config::exhaustive("aba-reuse"), buggy_scenario);
        let failure = report.assert_fails();
        assert_eq!(failure.kind, FailureKind::Panic);
        let schedule = failure.schedule.clone();
        let err = std::panic::catch_unwind(move || replay(&schedule, buggy_scenario))
            .expect_err("replay must reproduce the ABA corruption");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lost or duplicated"), "{msg}");
    }

    #[test]
    fn epoch_style_reclamation_survives_the_same_scenario() {
        explore(&Config::exhaustive("aba-epochs"), good_scenario).assert_ok();
    }
}

/// A reader overlapping the two payload stores sees a mixed pair unless the
/// version protocol brackets the write.
mod torn_read {
    use super::*;

    #[test]
    fn unversioned_register_tears() {
        let report = explore(&Config::exhaustive("nbw-torn"), || {
            let reg = Arc::new(TornNbw::new(0, 0));
            let w = Arc::clone(&reg);
            let r = Arc::clone(&reg);
            Plan::new().thread(move || w.write(1, 2)).thread(move || {
                let (a, b) = r.read();
                assert!(
                    (a, b) == (0, 0) || (a, b) == (1, 2),
                    "torn read: ({a}, {b})"
                );
            })
        });
        let failure = report.assert_fails();
        assert!(failure.message.contains("torn read"), "{failure:?}");
    }

    #[test]
    fn version_protocol_survives_the_same_scenario() {
        explore(&Config::exhaustive("nbw-versioned"), || {
            let reg = Arc::new(ModelNbw::new(0, 0));
            let w = Arc::clone(&reg);
            let r = Arc::clone(&reg);
            Plan::new().thread(move || w.write(1, 2)).thread(move || {
                let (a, b) = r.read();
                assert!(
                    (a, b) == (0, 0) || (a, b) == (1, 2),
                    "torn read: ({a}, {b})"
                );
            })
        })
        .assert_ok();
    }
}

/// Failing schedules are persisted for CI artifact upload when
/// `INTERLEAVE_FAILURE_DIR` is set.
#[test]
fn failure_artifacts_are_written_when_requested() {
    let dir = std::env::temp_dir().join(format!("interleave-artifacts-{}", std::process::id()));
    // Env vars are process-global; tests in this binary run on threads, but
    // no other test reads this variable, so the set/remove pair is safe.
    std::env::set_var("INTERLEAVE_FAILURE_DIR", &dir);
    let report = explore(&Config::exhaustive("artifact-demo"), || {
        let reg = Arc::new(TornNbw::new(0, 0));
        let w = Arc::clone(&reg);
        let r = Arc::clone(&reg);
        Plan::new().thread(move || w.write(1, 2)).thread(move || {
            let (a, b) = r.read();
            assert!((a, b) == (0, 0) || (a, b) == (1, 2), "torn");
        })
    });
    let result = std::panic::catch_unwind(|| report.assert_ok());
    std::env::remove_var("INTERLEAVE_FAILURE_DIR");
    assert!(result.is_err(), "exploration must have failed");
    let body = std::fs::read_to_string(dir.join("artifact-demo.schedule"))
        .expect("failure artifact written");
    assert!(body.contains("schedule: "), "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure must never become a hang: when the explorer's own
/// nondeterminism assert fires on the controller while a model thread is
/// parked at a yield point, the execution is aborted, the threads are
/// joined, and the panic surfaces with its message — in seconds.
#[test]
fn nondeterministic_scenario_fails_loudly_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    let explorer = std::thread::spawn(move || {
        let mut runs = 0usize;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explore(&Config::exhaustive("flaky-factory"), || {
                runs += 1;
                let shared = Arc::new(lfrt_interleave::Atomic::new(0u64));
                let (a, b) = (Arc::clone(&shared), Arc::clone(&shared));
                // The second execution's thread 1 never reaches a yield
                // point, so decision 0 sees [0] where the first saw [0, 1]
                // — with thread 0 parked in its store.
                let skip = runs > 1;
                Plan::new().thread(move || a.store(1)).thread(move || {
                    if !skip {
                        b.store(2);
                    }
                })
            })
        }));
        let message = outcome.err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        });
        let _ = tx.send(message);
    });
    let message = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the exploration hung instead of failing")
        .expect("a factory that changes between runs must be rejected");
    explorer
        .join()
        .expect("the exploring thread reported and ended");
    assert!(message.contains("is nondeterministic"), "{message}");
}
