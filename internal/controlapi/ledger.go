package controlapi

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/exitcode"
	"repro/internal/wal"
)

// State is a campaign's lifecycle state.
type State string

// Campaign lifecycle. queued → running → one of the four terminal states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateDegraded  State = "degraded"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends a campaign.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateDegraded, StateCancelled:
		return true
	}
	return false
}

// ExitCode maps a terminal state onto the exit-code taxonomy: done → 0,
// degraded → 4 (below quorum), cancelled and failed → 3 (incomplete;
// rerunning may succeed). Non-terminal states are 0 — there is no outcome
// yet.
func (s State) ExitCode() int {
	switch s {
	case StateDegraded:
		return exitcode.Degraded
	case StateFailed, StateCancelled:
		return exitcode.Infra
	}
	return exitcode.OK
}

// ledgerRecord is one append to the job ledger. Kind "submit" records an
// accepted campaign (with its normalized spec, so replay re-validates
// nothing); kind "outcome" records a terminal state. A submit without a
// matching outcome is, by definition, work a crashed daemon owes its
// clients — restart re-enqueues it.
type ledgerRecord struct {
	Kind   string        `json:"kind"`
	ID     string        `json:"id"`
	Tenant string        `json:"tenant,omitempty"`
	Spec   *CampaignSpec `json:"spec,omitempty"`
	State  State         `json:"state,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// ledger is the daemon's durable job memory: an append-only CRC-framed
// line journal (crash recovery inherited from internal/wal — torn tails
// truncated, corrupt records discarded and reported) plus a results
// directory of atomically-written campaign result documents. Every append
// is fsynced before the HTTP layer acknowledges, so an accepted campaign
// survives kill -9 by construction.
type ledger struct {
	dir     string
	journal *wal.LineJournal
	// Recovery is the journal's recovery report from open.
	Recovery wal.RecoveryReport
}

// replayedCampaign is one campaign reconstructed from the journal.
type replayedCampaign struct {
	ID     string
	Tenant string
	Spec   CampaignSpec
	State  State
	Error  string
}

// openLedger opens (creating if needed) the ledger under dir and replays
// it: every campaign ever submitted, in submission order, with its last
// known state. Interrupted campaigns come back as StateQueued — their
// checkpoint journals make the re-run cheap.
func openLedger(dir string) (*ledger, []replayedCampaign, error) {
	for _, sub := range []string{"", "results", "campaigns"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("controlapi: creating data dir: %w", err)
		}
	}
	j, payloads, rep, err := wal.OpenLines(wal.OSFS{}, filepath.Join(dir, "ledger.wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("controlapi: opening ledger: %w", err)
	}
	l := &ledger{dir: dir, journal: j, Recovery: rep}
	byID := map[string]*replayedCampaign{}
	var order []string
	for _, raw := range payloads {
		var rec ledgerRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// The frame CRC was valid, so this is a programming error, not
			// disk damage; refuse to guess.
			//benchlint:allow uncheckederr — cleanup on the error path
			j.Close()
			return nil, nil, fmt.Errorf("controlapi: ledger record undecodable: %w", err)
		}
		switch rec.Kind {
		case "submit":
			if rec.Spec == nil {
				continue
			}
			byID[rec.ID] = &replayedCampaign{
				ID: rec.ID, Tenant: rec.Tenant, Spec: *rec.Spec, State: StateQueued,
			}
			order = append(order, rec.ID)
		case "outcome":
			if c, ok := byID[rec.ID]; ok {
				c.State, c.Error = rec.State, rec.Error
			}
		}
	}
	out := make([]replayedCampaign, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return l, out, nil
}

// appendSubmit durably records an accepted campaign.
func (l *ledger) appendSubmit(id, tenant string, spec CampaignSpec) error {
	return l.append(ledgerRecord{Kind: "submit", ID: id, Tenant: tenant, Spec: &spec})
}

// appendOutcome durably records a terminal state.
func (l *ledger) appendOutcome(id string, state State, errMsg string) error {
	return l.append(ledgerRecord{Kind: "outcome", ID: id, State: state, Error: errMsg})
}

func (l *ledger) append(rec ledgerRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("controlapi: encoding ledger record: %w", err)
	}
	return l.journal.Append(data)
}

func (l *ledger) close() error { return l.journal.Close() }

// resultPath locates a campaign's persisted result document.
func (l *ledger) resultPath(id string) string {
	return filepath.Join(l.dir, "results", id+".json")
}

// checkpointDir locates a campaign's per-arm journal checkpoints; it
// exists while the campaign runs and is removed after a clean finish, so
// its presence after restart marks resumable work.
func (l *ledger) checkpointDir(id string) string {
	return filepath.Join(l.dir, "campaigns", id)
}

// saveResult atomically persists a campaign's result document
// (temp + fsync + rename, the same discipline as wal journal repair):
// a crash mid-write can never leave a half-written result behind.
func (l *ledger) saveResult(id string, data []byte) error {
	path := l.resultPath(id)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("controlapi: writing result: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		//benchlint:allow uncheckederr — cleanup; the write error wins
		f.Close()
		return fmt.Errorf("controlapi: writing result: %w", err)
	}
	if err := f.Sync(); err != nil {
		//benchlint:allow uncheckederr — cleanup; the sync error wins
		f.Close()
		return fmt.Errorf("controlapi: syncing result: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("controlapi: closing result: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("controlapi: publishing result: %w", err)
	}
	return nil
}

// loadResult reads a persisted result document (nil when none exists).
func (l *ledger) loadResult(id string) ([]byte, error) {
	data, err := os.ReadFile(l.resultPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}
