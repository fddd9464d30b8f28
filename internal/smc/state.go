package smc

import (
	"fmt"
	"sort"

	"fluxtrack/internal/rng"
)

// This file is the tracker's checkpoint surface: a complete, self-contained
// export of everything Algorithm 4.1 accumulates across rounds — the
// per-user weighted sample sets, the asynchronous-update bookkeeping, the
// round counter, and every materialized RNG substream cursor — so a tracker
// rebuilt in a fresh process from the same Config and seed resumes mid-track
// byte-identically (see internal/serve for the wire codec and the
// crash-restart determinism tests that pin the contract).

// UserCheckpoint is one user's full resumable state: the portable snapshot
// the migration path already uses plus the user's private RNG substream
// cursor. Unlike UserSnapshot — which deliberately leaves the substream with
// the (tracker, slot) pair so migration never replays another tile's draws —
// a checkpoint must carry the cursor: the restored tracker's slot has made
// zero draws, and resuming the stream from zero would replay history.
type UserCheckpoint struct {
	User     int
	Snapshot UserSnapshot
	RNG      rng.State
}

// TrackerState is the complete resumable state of a Tracker. Seed and
// NumUsers identify the configuration the state belongs to; RestoreState
// rejects a mismatch, because an unmaterialized user's substream is derived
// from (seed, index) at first touch and a different seed would silently
// diverge. Users holds only materialized slots, in ascending user order —
// a tracker responsible for a thin slice of a huge population checkpoints
// only the users it has actually seen.
type TrackerState struct {
	Seed     uint64
	NumUsers int
	Steps    int
	Users    []UserCheckpoint
}

// Seed returns the tracker's construction seed.
func (tr *Tracker) Seed() uint64 { return tr.seed }

// NumUsers returns the tracked population size (K).
func (tr *Tracker) NumUsers() int { return tr.cfg.NumUsers }

// ExportState deep-copies the tracker's complete resumable state. Exporting
// never mutates the tracker: a checkpointed tracker and its restored twin
// produce identical estimates from the next Step on, and the original may
// keep stepping as if nothing happened.
func (tr *Tracker) ExportState() TrackerState {
	st := TrackerState{
		Seed:     tr.seed,
		NumUsers: tr.cfg.NumUsers,
		Steps:    tr.steps,
		Users:    make([]UserCheckpoint, 0, len(tr.users)),
	}
	for j, u := range tr.users {
		st.Users = append(st.Users, UserCheckpoint{User: j, Snapshot: u.snapshot(), RNG: u.src.State()})
	}
	sort.Slice(st.Users, func(a, b int) bool { return st.Users[a].User < st.Users[b].User })
	return st
}

// RestoreState replaces the tracker's state with a deep copy of st. The
// tracker must have been built from the same Config seed and population size
// the state was exported under; every other slot reverts to the untouched
// bootstrap state, exactly as in a fresh tracker. After RestoreState the
// tracker is the exporting tracker's process-equivalent twin: the same
// observation stream produces byte-identical estimates (the searcher's work
// counters restart at zero, but they only ever feed scheduling and
// observability, never output).
func (tr *Tracker) RestoreState(st TrackerState) error {
	if st.Seed != tr.seed {
		return fmt.Errorf("smc: restore seed %#x into tracker seeded %#x", st.Seed, tr.seed)
	}
	if st.NumUsers != tr.cfg.NumUsers {
		return fmt.Errorf("smc: restore of %d users into tracker of %d", st.NumUsers, tr.cfg.NumUsers)
	}
	if st.Steps < 0 {
		return fmt.Errorf("smc: restore with negative step count %d", st.Steps)
	}
	prev := -1
	for _, uc := range st.Users {
		if uc.User <= prev || uc.User >= tr.cfg.NumUsers {
			return fmt.Errorf("smc: restore user list not strictly ascending within [0,%d)", tr.cfg.NumUsers)
		}
		prev = uc.User
		if uc.Snapshot.Initialized {
			if len(uc.Snapshot.Samples) == 0 {
				return fmt.Errorf("smc: restore user %d initialized with no samples", uc.User)
			}
			if len(uc.Snapshot.Samples) != len(uc.Snapshot.Weights) {
				return fmt.Errorf("smc: restore user %d has %d samples but %d weights",
					uc.User, len(uc.Snapshot.Samples), len(uc.Snapshot.Weights))
			}
		}
	}
	// Validation passed: rebuild the user map wholesale. Dropping untouched
	// slots (rather than resetting them) matches a fresh process exactly —
	// their substreams re-derive from (seed, index) on first touch.
	clear(tr.users)
	for _, uc := range st.Users {
		u := tr.ensure(uc.User)
		if err := tr.ImportUser(uc.User, uc.Snapshot); err != nil {
			return err
		}
		u.src.Restore(uc.RNG)
	}
	tr.steps = st.Steps
	return nil
}
