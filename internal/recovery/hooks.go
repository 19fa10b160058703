package recovery

import (
	"tiledwall/internal/metrics"
)

// Hooks is the recovery wiring of one tile decoder incarnation: its tuned
// configuration, the lease it must renew, and the counters its
// interventions are charged to. The chaos plan is not here: kills are
// injected by the serve loops, which carry it on their serve configs.
type Hooks struct {
	Cfg   Config
	Lease *Lease
	Rec   *metrics.Recovery
}

// Renew renews the lease, if any (nil-safe for unsupervised use).
func (h *Hooks) Renew() {
	if h != nil && h.Lease != nil {
		h.Lease.Renew()
	}
}
