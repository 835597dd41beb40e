//! The MOESI protocol state machine.
//!
//! Pure transition functions over [`MoesiState`], independent of any cache
//! array, so the protocol's invariants can be tested exhaustively.

use seesaw_cache::MoesiState;

/// What a cache must do alongside a state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing beyond the state change.
    None,
    /// Fetch the line (from a peer or the next level).
    FetchData,
    /// Supply data to the requester (this cache owns the line).
    SupplyData,
    /// Write the dirty line back.
    Writeback,
}

/// Transition for a local read.
///
/// Returns `(next_state, action)`. `others_have_copy` tells a miss whether
/// any peer holds the line (E vs S fill).
pub fn on_local_read(state: MoesiState, others_have_copy: bool) -> (MoesiState, Action) {
    use MoesiState::*;
    match state {
        Modified | Owned | Exclusive | Shared => (state, Action::None),
        Invalid => {
            let next = if others_have_copy { Shared } else { Exclusive };
            (next, Action::FetchData)
        }
    }
}

/// Transition for a local write. Peers must be invalidated unless the
/// state already permits a silent write.
pub fn on_local_write(state: MoesiState) -> (MoesiState, Action) {
    use MoesiState::*;
    match state {
        Modified => (Modified, Action::None),
        Exclusive => (Modified, Action::None),
        // S/O/I require an upgrade/ownership transaction.
        Shared | Owned => (Modified, Action::None),
        Invalid => (Modified, Action::FetchData),
    }
}

/// True if a local write from this state requires invalidating peers.
pub fn write_invalidates_peers(state: MoesiState) -> bool {
    use MoesiState::*;
    matches!(state, Shared | Owned | Invalid)
}

/// Transition when a *remote* core reads the line this cache holds.
pub fn on_remote_read(state: MoesiState) -> (MoesiState, Action) {
    use MoesiState::*;
    match state {
        Modified => (Owned, Action::SupplyData),
        Owned => (Owned, Action::SupplyData),
        Exclusive => (Shared, Action::None),
        Shared => (Shared, Action::None),
        Invalid => (Invalid, Action::None),
    }
}

/// Transition when a *remote* core writes the line this cache holds.
pub fn on_remote_write(state: MoesiState) -> (MoesiState, Action) {
    use MoesiState::*;
    match state {
        Modified | Owned => (Invalid, Action::Writeback),
        Exclusive | Shared => (Invalid, Action::None),
        Invalid => (Invalid, Action::None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MoesiState::*;

    const ALL: [MoesiState; 5] = [Modified, Owned, Exclusive, Shared, Invalid];

    #[test]
    fn local_read_hits_do_not_change_state() {
        for s in [Modified, Owned, Exclusive, Shared] {
            assert_eq!(on_local_read(s, true), (s, Action::None));
            assert_eq!(on_local_read(s, false), (s, Action::None));
        }
    }

    #[test]
    fn read_miss_fills_exclusive_or_shared() {
        assert_eq!(
            on_local_read(Invalid, false),
            (Exclusive, Action::FetchData)
        );
        assert_eq!(on_local_read(Invalid, true), (Shared, Action::FetchData));
    }

    #[test]
    fn writes_always_end_modified() {
        for s in ALL {
            let (next, _) = on_local_write(s);
            assert_eq!(next, Modified, "write from {s} must end Modified");
        }
    }

    #[test]
    fn silent_writes_only_from_m_or_e() {
        assert!(!write_invalidates_peers(Modified));
        assert!(!write_invalidates_peers(Exclusive));
        assert!(write_invalidates_peers(Shared));
        assert!(write_invalidates_peers(Owned));
        assert!(write_invalidates_peers(Invalid));
    }

    #[test]
    fn remote_read_preserves_dirty_data_via_owned() {
        // The defining MOESI feature: a dirty line can be shared without
        // a writeback by moving to Owned.
        assert_eq!(on_remote_read(Modified), (Owned, Action::SupplyData));
        assert_eq!(on_remote_read(Owned), (Owned, Action::SupplyData));
        assert_eq!(on_remote_read(Exclusive), (Shared, Action::None));
    }

    #[test]
    fn remote_write_invalidates_and_saves_dirty_data() {
        assert_eq!(on_remote_write(Modified), (Invalid, Action::Writeback));
        assert_eq!(on_remote_write(Owned), (Invalid, Action::Writeback));
        assert_eq!(on_remote_write(Shared), (Invalid, Action::None));
        assert_eq!(on_remote_write(Exclusive), (Invalid, Action::None));
    }

    #[test]
    fn no_transition_resurrects_an_invalid_line() {
        assert_eq!(on_remote_read(Invalid).0, Invalid);
        assert_eq!(on_remote_write(Invalid).0, Invalid);
    }

    /// Single-writer / multiple-reader invariant over all reachable state
    /// pairs: if one cache is M or E, no other cache may hold a valid copy.
    /// We verify the transition table cannot create a violating pair.
    #[test]
    fn swmr_invariant_is_preserved_by_transitions() {
        // Enumerate (holder state, other state) pairs that are legal, then
        // check every event keeps them legal.
        let legal = |a: MoesiState, b: MoesiState| -> bool {
            let exclusive = |s| matches!(s, Modified | Exclusive);
            let no_stale_sharers = !(exclusive(a) && b != Invalid || exclusive(b) && a != Invalid);
            // At most one owner.
            no_stale_sharers && !(a == Owned && b == Owned)
        };
        for a in ALL {
            for b in ALL {
                if !legal(a, b) {
                    continue;
                }
                // Remote write at `b`'s initiative: `a` sees remote write,
                // `b` becomes Modified.
                let (a2, _) = on_remote_write(a);
                assert!(
                    legal(a2, Modified),
                    "remote write broke SWMR from ({a},{b})"
                );
                // Remote read by `b`: `a` transitions, `b` fills Shared.
                let (a3, _) = on_remote_read(a);
                if a != Invalid {
                    assert!(legal(a3, Shared), "remote read broke SWMR from ({a},{b})");
                }
            }
        }
    }
}
