package serve

// Named save-state slot endpoints: the service-side surface over
// experiment.SlotStore. A slot-enabled server (Config.SlotDir set) lists and
// inspects slots saved by ctcpsim on the same directory, and forks one
// checkpoint into what-if configurations over HTTP — restore itself stays a
// local (CLI) operation, since a restored pipeline is an interactive object,
// not a job.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"ctcp/internal/experiment"
)

// forkRequest is the payload of POST /api/v1/slots/{name}/fork: a
// destination name plus the what-if config delta (experiment.SlotConfig
// semantics; an empty base inherits the source slot's base).
type forkRequest struct {
	As             string `json:"as"`
	Base           string `json:"base,omitempty"`
	Hop            int    `json:"hop,omitempty"`
	ZeroAllFwd     bool   `json:"zero_all_fwd,omitempty"`
	ZeroCritFwd    bool   `json:"zero_crit_fwd,omitempty"`
	ZeroIntraTrace bool   `json:"zero_intra_trace,omitempty"`
	ZeroInterTrace bool   `json:"zero_inter_trace,omitempty"`
}

func (fr forkRequest) delta() experiment.SlotConfig {
	return experiment.SlotConfig{
		Base:           fr.Base,
		Hop:            fr.Hop,
		ZeroAllFwd:     fr.ZeroAllFwd,
		ZeroCritFwd:    fr.ZeroCritFwd,
		ZeroIntraTrace: fr.ZeroIntraTrace,
		ZeroInterTrace: fr.ZeroInterTrace,
	}
}

// slotStore returns the store or the error every slot endpoint reports when
// the server was started without a slot directory. The store serializes
// concurrent forks internally (per-destination reservation), so handlers
// call it directly — no handler-level lock, which would otherwise be held
// across checkpoint restore I/O.
func (s *Server) slotStore() (*experiment.SlotStore, error) {
	if s.slots == nil {
		return nil, fmt.Errorf("server has no slot directory (start with a SlotDir)")
	}
	return s.slots, nil
}

// handleSlots lists every named slot with its fingerprint and segment
// metadata, sorted by name.
func (s *Server) handleSlots(w http.ResponseWriter, _ *http.Request) {
	st, err := s.slotStore()
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	slots, err := st.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, slots)
}

// handleSlot returns one slot's metadata.
func (s *Server) handleSlot(w http.ResponseWriter, r *http.Request) {
	st, err := s.slotStore()
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	meta, err := st.Inspect(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleSlotFork forks a slot into a what-if configuration. Invalid deltas —
// unknown base, inconsistent knobs, or restore-incompatible geometry changes
// — fail with 400 and leave no destination slot; a stale source slot
// (fingerprints that no longer reproduce) is refused with 409.
func (s *Server) handleSlotFork(w http.ResponseWriter, r *http.Request) {
	st, err := s.slotStore()
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var fr forkRequest
	if err := json.NewDecoder(r.Body).Decode(&fr); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if fr.As == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fork request needs a destination name (\"as\")"))
		return
	}
	src := r.PathValue("name")

	// No handler-level lock: the store's per-destination reservation is what
	// serializes concurrent forks, so this handler never blocks siblings (or
	// /healthz) behind a checkpoint restore.
	srcMeta, err := st.Inspect(src)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	delta := fr.delta()
	if delta.Base == "" {
		delta.Base = srcMeta.Config.Base
	}
	meta, err := st.Fork(src, fr.As, delta)
	if err != nil {
		status := http.StatusBadRequest
		if err := experiment.VerifySlot(srcMeta); err != nil {
			status = http.StatusConflict // stale source, not a bad delta
		}
		writeError(w, status, err)
		return
	}
	s.logf("slot %s: forked to %s (base=%s hop=%d)", src, meta.Name, meta.Config.Base, meta.Config.Hop)
	writeJSON(w, http.StatusCreated, meta)
}
