package scenario

// The declarative face of the core re-optimization plane: scenarios state
// the pass period and hysteresis as plain JSON data and compile it
// into a core.ReoptConfig.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
)

// Reoptimize configures measurement-driven online tree re-optimization
// for a multi-group scenario (see core/reopt.go for the mechanics).
type Reoptimize struct {
	// EverySec is the period between re-optimization passes in simulated
	// seconds. 0 disables re-optimization.
	EverySec float64 `json:"every_sec,omitempty"`
	// MinImprove is the hysteresis threshold: a change is accepted only
	// when the predicted delay undercuts the measured one by at least
	// this fraction. Default 0.1.
	MinImprove float64 `json:"min_improve,omitempty"`
	// CooldownSec is the per-group quiet period after an accepted change.
	// Default: one period.
	CooldownSec float64 `json:"cooldown_sec,omitempty"`
	// MaxMoves bounds the members rewired per pass per group. Default 1.
	MaxMoves int `json:"max_moves,omitempty"`
}

// Enabled reports whether re-optimization is configured.
func (r Reoptimize) Enabled() bool { return r.EverySec > 0 }

// validate checks the re-optimization spec.
func (r Reoptimize) validate(name string) error {
	if r.EverySec < 0 || r.CooldownSec < 0 || r.MaxMoves < 0 {
		return fmt.Errorf("scenario %s: negative re-optimization parameter", name)
	}
	if r.MinImprove < 0 || r.MinImprove >= 1 {
		return fmt.Errorf("scenario %s: reoptimize min_improve %v outside [0,1)", name, r.MinImprove)
	}
	if !r.Enabled() && (r.MinImprove != 0 || r.CooldownSec != 0 || r.MaxMoves != 0) {
		return fmt.Errorf("scenario %s: reoptimize parameters set without every_sec", name)
	}
	return nil
}

// compile materialises the core configuration.
func (r Reoptimize) compile() core.ReoptConfig {
	if !r.Enabled() {
		return core.ReoptConfig{}
	}
	return core.ReoptConfig{
		Every:      des.Seconds(r.EverySec),
		MinImprove: r.MinImprove,
		Cooldown:   des.Seconds(r.CooldownSec),
		MaxMoves:   r.MaxMoves,
	}
}
