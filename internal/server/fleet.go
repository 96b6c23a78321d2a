package server

// Wire types for the federation control plane. They live in this
// package — not internal/server/federation — because they are shared
// vocabulary: the coordinator serves them, the client package decodes
// them, and a standby coordinator mirrors them from its primary. Keeping
// them next to JobSpec/JobState means every party that can already talk
// the job API can talk the fleet API without importing the federation
// implementation.

// WorkerHealth is one worker's scheduling health as scored by a
// coordinator: an EWMA of observed service rate, the attempt
// success/failure tallies, and the adaptive straggler lease the
// coordinator would grant the worker's next range. Exported at
// GET /v1/fleet and in /v1/coordinator/status so brown-outs are
// observable. Standby coordinators do not mirror it: they adopt only
// each member's URL and age, so a freshly promoted primary scores its
// fleet from scratch.
type WorkerHealth struct {
	// EWMARunsPerSec is the smoothed observed service rate across the
	// worker's completed ranges (0 until the first completion).
	EWMARunsPerSec float64 `json:"ewma_runs_per_sec"`
	// ErrShare is the smoothed share of attempts that failed (0..1).
	ErrShare float64 `json:"err_share"`
	// DeclaredRunsPerSec is the capacity hint the worker self-reported
	// when joining the fleet (0 when none was declared). Dispatch weights
	// a worker by max(declared, observed EWMA), so a declared capacity
	// shapes placement before the first range completes.
	DeclaredRunsPerSec float64 `json:"declared_runs_per_sec,omitempty"`
	// Successes / Failures count completed and failed range attempts.
	Successes int64 `json:"successes"`
	Failures  int64 `json:"failures"`
	// BrownedOut reports that the coordinator has stopped dispatching to
	// this worker because its error share crossed the brown-out
	// threshold; it drains and is re-probed after a cooldown.
	BrownedOut bool `json:"browned_out,omitempty"`
	// LeaseMS is the adaptive straggler lease, in milliseconds, the
	// coordinator would grant this worker for a default-sized range.
	LeaseMS int64 `json:"lease_ms"`
}

// FleetMember is one entry of a coordinator's live-worker view, served
// at GET /v1/fleet. A standby mirrors AgeMS (time since the worker was
// last heard from) rather than an absolute timestamp, so the primary's
// and the standby's clocks never need to agree.
type FleetMember struct {
	URL string `json:"url"`
	// State is "alive" or "suspect" (past the suspicion threshold
	// without contact; next stop is removal from the fleet).
	State string `json:"state"`
	AgeMS int64  `json:"age_ms"`
	// Health is the coordinator's scheduling score for this worker.
	Health WorkerHealth `json:"health"`
}

// CoordStatus is the coordinator heartbeat payload at
// GET /v1/coordinator/status: the leadership epoch, the role, the fleet
// view and every known job's state. A standby coordinator polls it to
// mirror the primary's ledger and detect its death; operators read it
// for a one-call picture of the federation.
type CoordStatus struct {
	// Epoch increments at every leadership change (a standby promoting
	// itself), so two coordinators' histories are totally ordered.
	Epoch int64 `json:"epoch"`
	// Role is "primary" (dispatching) or "standby" (mirroring).
	Role string `json:"role"`
	// Rank is the coordinator's fixed position in the failover order:
	// 0 for the configured primary, 1 for the first standby, and so on.
	// Rank never changes at runtime — it breaks ties when two
	// coordinators claim the same epoch after a healed partition (the
	// lower rank wins and the higher demotes itself).
	Rank int `json:"rank"`
	// Fleet is the live-worker view (same payload as GET /v1/fleet).
	Fleet []FleetMember `json:"fleet"`
	// Jobs lists every known job in submission order.
	Jobs []JobState `json:"jobs"`
}

// Coordinator role names used in CoordStatus.Role.
const (
	RolePrimary = "primary"
	RoleStandby = "standby"
)
