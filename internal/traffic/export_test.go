package traffic

import "fmt"

// Methods only tests reach: a mix's name in test output, and the rest of
// Source for the greedy source, which non-test code drives as itself.

func (m Mix) String() string {
	switch m {
	case MixAudio:
		return "3xAudio"
	case MixVideo:
		return "3xVideo"
	case MixHetero:
		return "1xVideo+2xAudio"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

func (g *Greedy) Name() string { return fmt.Sprintf("greedy(σ=%.0f,ρ=%.0f)", g.Sigma, g.Rho) }

func (g *Greedy) AvgRate() float64 { return g.Rho }
