// Package bpred implements the branch prediction hardware of the paper's
// processor (table 1): a hybrid predictor with a 2K-entry gshare, a
// 2K-entry bimodal, and a 1K-entry selector; a 2048-entry 4-way BTB; and a
// return address stack for calls and returns.
package bpred

import "repro/internal/isa"

// Config sizes the predictor; zero values take the paper's configuration.
type Config struct {
	GshareEntries   int // 2-bit counters indexed by PC^history
	BimodalEntries  int // 2-bit counters indexed by PC
	SelectorEntries int // 2-bit chooser counters
	HistoryBits     int
	BTBEntries      int
	BTBAssoc        int
	RASEntries      int
}

// DefaultConfig is the paper's table 1 configuration.
func DefaultConfig() Config {
	return Config{
		GshareEntries:   2048,
		BimodalEntries:  2048,
		SelectorEntries: 1024,
		HistoryBits:     11,
		BTBEntries:      2048,
		BTBAssoc:        4,
		RASEntries:      16,
	}
}

func (c *Config) fill() {
	d := DefaultConfig()
	if c.GshareEntries == 0 {
		c.GshareEntries = d.GshareEntries
	}
	if c.BimodalEntries == 0 {
		c.BimodalEntries = d.BimodalEntries
	}
	if c.SelectorEntries == 0 {
		c.SelectorEntries = d.SelectorEntries
	}
	if c.HistoryBits == 0 {
		c.HistoryBits = d.HistoryBits
	}
	if c.BTBEntries == 0 {
		c.BTBEntries = d.BTBEntries
	}
	if c.BTBAssoc == 0 {
		c.BTBAssoc = d.BTBAssoc
	}
	if c.RASEntries == 0 {
		c.RASEntries = d.RASEntries
	}
}

// Stats counts prediction outcomes.
type Stats struct {
	CondLookups   int64
	CondMispred   int64
	BTBLookups    int64
	BTBMisses     int64
	RASReturns    int64
	RASMispredict int64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target int
	lru    int64
}

// Predictor is the full front-end prediction unit.
type Predictor struct {
	cfg      Config
	gshare   []uint8
	bimodal  []uint8
	selector []uint8
	history  uint64
	btb      []btbEntry // BTBEntries/BTBAssoc sets of BTBAssoc ways
	ras      []int
	tick     int64
	Stats    Stats
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	cfg.fill()
	p := &Predictor{
		cfg:      cfg,
		gshare:   make([]uint8, cfg.GshareEntries),
		bimodal:  make([]uint8, cfg.BimodalEntries),
		selector: make([]uint8, cfg.SelectorEntries),
		btb:      make([]btbEntry, cfg.BTBEntries),
	}
	// Weakly taken initial state avoids a long cold-start ramp.
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.selector {
		p.selector[i] = 2
	}
	return p
}

// Config returns the predictor's configuration, zero fields resolved.
func (p *Predictor) Config() Config { return p.cfg }

func pcIndex(pc int) uint64 { return uint64(pc) / isa.InstBytes }

func (p *Predictor) gshareIdx(pc int) int {
	return int((pcIndex(pc) ^ p.history) % uint64(len(p.gshare)))
}

func (p *Predictor) bimodalIdx(pc int) int {
	return int(pcIndex(pc) % uint64(len(p.bimodal)))
}

func (p *Predictor) selectorIdx(pc int) int {
	return int(pcIndex(pc) % uint64(len(p.selector)))
}

// PredictCond predicts a conditional branch at pc. The caller must follow
// with UpdateCond for the same branch before the next prediction.
func (p *Predictor) PredictCond(pc int) bool {
	p.Stats.CondLookups++
	g := p.gshare[p.gshareIdx(pc)] >= 2
	b := p.bimodal[p.bimodalIdx(pc)] >= 2
	if p.selector[p.selectorIdx(pc)] >= 2 {
		return g
	}
	return b
}

// UpdateCond trains the predictor with the actual outcome.
func (p *Predictor) UpdateCond(pc int, taken bool) {
	gi, bi, si := p.gshareIdx(pc), p.bimodalIdx(pc), p.selectorIdx(pc)
	g := p.gshare[gi] >= 2
	b := p.bimodal[bi] >= 2
	pred := g
	if p.selector[si] < 2 {
		pred = b
	}
	if pred != taken {
		p.Stats.CondMispred++
	}
	p.train(gi, bi, si, g, b, taken)
}

// TrainCond is the functional-warming update: it performs exactly the
// state transitions of UpdateCond — counters, chooser, global history —
// but charges nothing to Stats, so warming branches between detailed
// sample windows keep the predictor hot without polluting the window's
// measured misprediction rate.
func (p *Predictor) TrainCond(pc int, taken bool) {
	gi, bi, si := p.gshareIdx(pc), p.bimodalIdx(pc), p.selectorIdx(pc)
	p.train(gi, bi, si, p.gshare[gi] >= 2, p.bimodal[bi] >= 2, taken)
}

// train applies the component, chooser and history updates shared by
// UpdateCond and TrainCond.
func (p *Predictor) train(gi, bi, si int, g, b, taken bool) {
	// Chooser trains toward the component that was right (when they differ).
	if g != b {
		if g == taken {
			p.selector[si] = satInc(p.selector[si])
		} else {
			p.selector[si] = satDec(p.selector[si])
		}
	}
	if taken {
		p.gshare[gi] = satInc(p.gshare[gi])
		p.bimodal[bi] = satInc(p.bimodal[bi])
	} else {
		p.gshare[gi] = satDec(p.gshare[gi])
		p.bimodal[bi] = satDec(p.bimodal[bi])
	}
	p.history = ((p.history << 1) | boolBit(taken)) & ((1 << p.cfg.HistoryBits) - 1)
}

func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return 3
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return 0
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// LookupBTB returns the predicted target for a taken control transfer at
// pc, or ok=false on a BTB miss.
func (p *Predictor) LookupBTB(pc int) (target int, ok bool) {
	p.Stats.BTBLookups++
	set, tag := p.btbSet(pc)
	for i := 0; i < p.cfg.BTBAssoc; i++ {
		e := &p.btb[set+i]
		if e.valid && e.tag == tag {
			p.tick++
			e.lru = p.tick
			return e.target, true
		}
	}
	p.Stats.BTBMisses++
	return 0, false
}

// UpdateBTB installs the target of a taken control transfer.
func (p *Predictor) UpdateBTB(pc, target int) {
	set, tag := p.btbSet(pc)
	victim := set
	for i := 0; i < p.cfg.BTBAssoc; i++ {
		e := &p.btb[set+i]
		if e.valid && e.tag == tag {
			victim = set + i
			break
		}
		if !e.valid {
			victim = set + i
			break
		}
		if e.lru < p.btb[victim].lru {
			victim = set + i
		}
	}
	p.tick++
	p.btb[victim] = btbEntry{valid: true, tag: tag, target: target, lru: p.tick}
}

func (p *Predictor) btbSet(pc int) (base int, tag uint64) {
	sets := p.cfg.BTBEntries / p.cfg.BTBAssoc
	idx := pcIndex(pc)
	return int(idx%uint64(sets)) * p.cfg.BTBAssoc, idx / uint64(sets)
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(retPC int) {
	if len(p.ras) >= p.cfg.RASEntries {
		copy(p.ras, p.ras[1:])
		p.ras = p.ras[:len(p.ras)-1]
	}
	p.ras = append(p.ras, retPC)
}

// PopRAS predicts a return target; reports whether the prediction matched
// actual and counts stats.
func (p *Predictor) PopRAS(actual int) (predicted int, correct bool) {
	p.Stats.RASReturns++
	if len(p.ras) == 0 {
		p.Stats.RASMispredict++
		return 0, false
	}
	predicted = p.ras[len(p.ras)-1]
	p.ras = p.ras[:len(p.ras)-1]
	if predicted != actual {
		p.Stats.RASMispredict++
		return predicted, false
	}
	return predicted, true
}

// WarmBTB installs a taken transfer's target on the warming path. It is
// UpdateBTB by another name — BTB installation is already stat-free — and
// exists so warming call sites read uniformly.
func (p *Predictor) WarmBTB(pc, target int) { p.UpdateBTB(pc, target) }

// WarmCall records a call's return address on the warming path.
func (p *Predictor) WarmCall(retPC int) { p.PushRAS(retPC) }

// WarmReturn pops the return-address stack on the warming path without
// charging prediction statistics.
func (p *Predictor) WarmReturn() {
	if len(p.ras) > 0 {
		p.ras = p.ras[:len(p.ras)-1]
	}
}

// MispredictRate returns the conditional-branch misprediction fraction.
func (s *Stats) MispredictRate() float64 {
	if s.CondLookups == 0 {
		return 0
	}
	return float64(s.CondMispred) / float64(s.CondLookups)
}
