package system

import "tiledwall/internal/service"

// ResidentWall is kept only for wallbench, the fixed benchmark harness,
// which names it; everything else uses service.Wall directly.
type ResidentWall struct{ *service.Wall }

// NewResidentWall builds a service.Wall for wallbench.
func NewResidentWall(cfg Config) (*ResidentWall, error) {
	w, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ResidentWall{w}, nil
}

// Service returns the wall.
func (w *ResidentWall) Service() *service.Wall { return w.Wall }
