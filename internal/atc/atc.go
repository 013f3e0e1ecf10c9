package atc

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// NetworkParams are the deployment-time constants every node knows (they
// are set during tree construction, like the paper's k and d).
type NetworkParams struct {
	// N is the network size including the root.
	N int
	// Internal is the number of non-leaf tree nodes (root included).
	Internal int
	// Links is the number of radio links in the connectivity graph. On a
	// pure tree topology this is N-1; on a real deployment it is larger,
	// which makes flooding correspondingly more expensive (§5.1 counts a
	// reception on every link in both directions).
	Links int
}

// Validate checks the parameters.
func (p NetworkParams) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("atc: network size %d < 2", p.N)
	}
	if p.Internal < 1 || p.Internal >= p.N {
		return fmt.Errorf("atc: internal node count %d outside [1, %d)", p.Internal, p.N)
	}
	if p.Links < p.N-1 {
		return fmt.Errorf("atc: %d links cannot connect %d nodes", p.Links, p.N)
	}
	return nil
}

// CFTotal is the flooding cost of the deployment: every node broadcasts
// once (cost N) and every link delivers twice (cost 2·Links) — eq. (3).
func (p NetworkParams) CFTotal() float64 { return float64(p.N + 2*p.Links) }

// CQDMax is the worst-case directed dissemination cost on the deployed
// tree: every internal node transmits once, every non-root node receives
// once (§5.2 generalized from the k-ary closed form).
func (p NetworkParams) CQDMax() float64 { return float64(p.Internal + p.N - 1) }

// CUDMax is the cost of one network-wide update wave: every non-root node
// unicasts once to its parent (§5.2).
func (p NetworkParams) CUDMax() float64 { return float64(2 * (p.N - 1)) }

// FMax is the update frequency at which worst-case DirQ cost equals
// flooding (eq. (8) generalized to the deployed tree).
func (p NetworkParams) FMax() float64 {
	return (p.CFTotal() - p.CQDMax()) / p.CUDMax()
}

// UmaxPerHour returns the network-wide Update Message count per hour at
// which DirQ's worst case reaches the cost of flooding for the given query
// rate — the "Umax/Hr" reference line of Fig. 6. Each update message costs
// one tx and one rx, so Umax = (CF - CQDmax) · EHr / 2; equivalently
// fMax·EHr·(N-1).
func (p NetworkParams) UmaxPerHour(queriesPerHr int) float64 {
	return (p.CFTotal() - p.CQDMax()) * float64(queriesPerHr) / 2
}

// BudgetPerNode returns the per-node hourly update budget for a target
// cost fraction rho: the network-wide budget rho·Umax split evenly over the
// N-1 reporting nodes (= rho·fMax·EHr), which caps the network's update
// cost at rho of the headroom between worst-case dissemination and
// flooding.
func (p NetworkParams) BudgetPerNode(queriesPerHr int, rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return rho * p.UmaxPerHour(queriesPerHr) / float64(p.N-1)
}

// Config tunes a Controller.
type Config struct {
	// EpochsPerHour maps volatility (per epoch) to the hourly budget.
	EpochsPerHour int
	// InitialPct is δ before the first estimate arrives.
	InitialPct float64
	// MinPct / MaxPct clamp δ.
	MinPct float64
	MaxPct float64
	// FeedbackGamma is the exponent of the multiplicative feedback
	// correction (0 disables feedback; 0.5 is a damped default).
	FeedbackGamma float64
}

// DefaultConfig returns the controller tuning used by the experiments.
func DefaultConfig(epochsPerHour int) Config {
	return Config{
		EpochsPerHour: epochsPerHour,
		InitialPct:    5,
		MinPct:        0.25,
		MaxPct:        20,
		FeedbackGamma: 0.5,
	}
}

// Controller is the per-node ATC state machine. It implements
// core.Controller.
type Controller struct {
	cfg Config

	deltaPct float64
	normVol  float64 // latest normalized volatility (span fraction / epoch)

	budget       float64 // allowed updates per hour (from the root)
	haveBudget   bool
	sentThisHour int
	gain         float64
}

var _ core.Controller = (*Controller)(nil)

// NewController builds an ATC controller.
func NewController(cfg Config) (*Controller, error) {
	if cfg.EpochsPerHour < 1 {
		return nil, fmt.Errorf("atc: EpochsPerHour %d < 1", cfg.EpochsPerHour)
	}
	if cfg.InitialPct <= 0 || cfg.MinPct <= 0 || cfg.MaxPct < cfg.MinPct {
		return nil, fmt.Errorf("atc: inconsistent δ bounds init=%v min=%v max=%v",
			cfg.InitialPct, cfg.MinPct, cfg.MaxPct)
	}
	if cfg.FeedbackGamma < 0 || cfg.FeedbackGamma > 1 {
		return nil, fmt.Errorf("atc: FeedbackGamma %v outside [0,1]", cfg.FeedbackGamma)
	}
	return &Controller{cfg: cfg, deltaPct: cfg.InitialPct, gain: 1}, nil
}

// DeltaPct implements core.Controller.
func (c *Controller) DeltaPct() float64 { return c.deltaPct }

// OnEpoch implements core.Controller: it stores the node's latest
// normalized volatility.
func (c *Controller) OnEpoch(normVolatility float64) { c.normVol = normVolatility }

// OnUpdateSent implements core.Controller.
func (c *Controller) OnUpdateSent() { c.sentThisHour++ }

// OnEstimate implements core.Controller: at each hourly estimate the node
// closes its accounting hour, applies feedback against its budget, and
// recomputes δ feedforward from volatility and the new budget.
func (c *Controller) OnEstimate(e core.EstimateMsg) {
	sent := c.sentThisHour
	c.sentThisHour = 0

	budget := e.BudgetPerNode
	if budget <= 0 {
		// No query load expected: spend nothing — widen δ to the maximum.
		c.budget, c.haveBudget = 0, true
		c.deltaPct = c.cfg.MaxPct
		return
	}

	// Feedback: if we overspent last hour, widen; if we underspent, narrow.
	if c.haveBudget && c.cfg.FeedbackGamma > 0 && c.budget > 0 {
		ratio := (float64(sent) + 0.5) / (c.budget + 0.5)
		c.gain *= math.Pow(ratio, c.cfg.FeedbackGamma)
		c.gain = clamp(c.gain, 0.05, 40)
	}
	c.budget, c.haveBudget = budget, true

	// Feedforward: solve  volatility * E / width = budget  for the window
	// width (as a span fraction), then convert to percent.
	e2 := float64(c.cfg.EpochsPerHour)
	widthFrac := c.normVol * e2 / budget
	pct := widthFrac * 100 * c.gain
	c.deltaPct = clamp(pct, c.cfg.MinPct, c.cfg.MaxPct)
}

// Retune implements core.Retunable: pct becomes the new ceiling of the
// control band (the floor shrinks with it if needed) and the current δ is
// reclamped immediately. Subsequent estimates keep adapting inside the new
// band, so a retune steers the ATC without suspending it. Non-positive pct
// is ignored.
func (c *Controller) Retune(pct float64) {
	if pct <= 0 {
		return
	}
	c.cfg.MaxPct = pct
	if c.cfg.MinPct > pct {
		c.cfg.MinPct = pct
	}
	c.deltaPct = clamp(c.deltaPct, c.cfg.MinPct, c.cfg.MaxPct)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// BudgetFunc builds the root-side core.BudgetFunc for the given deployed
// tree shape and target cost fraction rho.
func BudgetFunc(p NetworkParams, rho float64) (core.BudgetFunc, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if rho <= 0 || rho > 1 {
		return nil, fmt.Errorf("atc: rho %v outside (0,1]", rho)
	}
	return func(queriesPerHr int) float64 {
		return p.BudgetPerNode(queriesPerHr, rho)
	}, nil
}
