// Warm-state copying and serialization for the checkpoint store
// (internal/ckpt), mirroring internal/cache: CopyInto serves the
// fork-per-window sampled engine, AppendState/UnmarshalState the
// on-disk artifact, and all of them write into the caller's storage. The
// serialized state is everything a restored predictor needs to behave
// bit-identically — component counters, chooser, global history, each
// BTB entry's tag and target with its LRU rank within its set, and the
// return-address stack. Ranks stand in for the LRU clocks because
// UpdateBTB fills the first invalid way or evicts the valid way with
// the least clock, every hit and install takes the next tick, and no
// entry ever becomes invalid again: only each set's order of clocks
// decides anything. Stats are measurements, not state, and are
// excluded.
package bpred

import (
	"encoding/binary"
	"fmt"

	"repro/internal/binio"
)

// WithDefaults resolves zero fields to the paper's table 1
// configuration — the same resolution New applies — so configurations
// that build identical predictors compare (and key) identically.
func (c Config) WithDefaults() Config {
	c.fill()
	return c
}

// CopyInto makes dst an independent copy of the predictor —
// configuration, tables, history, BTB, return-address stack and Stats —
// reusing dst's storage, whatever state it held before; later updates
// to either do not affect the other. A zero Predictor is a valid dst.
func (p *Predictor) CopyInto(dst *Predictor) {
	gshare := append(dst.gshare[:0], p.gshare...)
	bimodal := append(dst.bimodal[:0], p.bimodal...)
	selector := append(dst.selector[:0], p.selector...)
	btb := append(dst.btb[:0], p.btb...)
	ras := append(dst.ras[:0], p.ras...)
	*dst = *p
	dst.gshare, dst.bimodal, dst.selector = gshare, bimodal, selector
	dst.btb, dst.ras = btb, ras
}

// AppendState appends the predictor's serialized warm state to buf and
// returns the extended buffer.
func (p *Predictor) AppendState(buf []byte) []byte {
	w := binio.NewWriter(buf)
	w.U32(uint32(len(p.gshare)))
	w.Raw(p.gshare)
	w.U32(uint32(len(p.bimodal)))
	w.Raw(p.bimodal)
	w.U32(uint32(len(p.selector)))
	w.Raw(p.selector)
	w.U64(p.history)
	w.U32(uint32(len(p.btb)))
	for i := range p.btb {
		w.U64(p.btb[i].tag)
		w.I64(int64(p.btb[i].target))
	}
	for base := 0; base < len(p.btb); base += p.cfg.BTBAssoc {
		set := p.btb[base:min(base+p.cfg.BTBAssoc, len(p.btb))]
		for i := range set {
			w.U8(lruRank(set, i))
		}
	}
	w.U32(uint32(len(p.ras)))
	for _, v := range p.ras {
		w.I64(int64(v))
	}
	return w.Bytes()
}

// lruRank returns entry i's rank in its BTB set: 0 if it is invalid,
// else one more than the number of valid entries with a lesser clock.
// Clocks within a set are distinct, because every hit and install takes
// the next tick.
func lruRank(set []btbEntry, i int) uint8 {
	if !set[i].valid {
		return 0
	}
	rank := 1
	for j := range set {
		if set[j].valid && set[j].lru < set[i].lru {
			rank++
		}
	}
	return uint8(rank)
}

// Encoded sizes of the fixed-size records: a BTB entry's tag and
// target, the entry with its rank (in an array of its own), and a
// return-address stack slot.
const (
	btbPairBytes  = 8 + 8
	btbEntryBytes = btbPairBytes + 1
	rasSlotBytes  = 8
)

// UnmarshalState restores state serialized by AppendState into a
// predictor built from the same configuration, overwriting whatever
// state it held in its own storage: the BTB entries are decoded from one
// bounds-checked slice and the return-address stack is refilled in
// place. Each valid BTB entry's clock is restored as its rank and the
// predictor's clock as the associativity, so every later tick exceeds
// every restored clock. Stats are reset.
func (p *Predictor) UnmarshalState(data []byte) error {
	r := binio.NewReader(data)
	readTable := func(name string, dst []uint8) error {
		n := int(r.U32())
		if err := r.Err(); err != nil {
			return err
		}
		if n != len(dst) {
			return fmt.Errorf("bpred: serialized %s has %d entries, predictor has %d", name, n, len(dst))
		}
		copy(dst, r.Raw(n))
		if err := r.Err(); err != nil {
			return err
		}
		for i, c := range dst {
			if c > 3 {
				// No predictor reaches this state: the counters saturate.
				return fmt.Errorf("bpred: serialized %s counter %d is %d, beyond a 2-bit counter", name, i, c)
			}
		}
		return nil
	}
	if err := readTable("gshare", p.gshare); err != nil {
		return err
	}
	if err := readTable("bimodal", p.bimodal); err != nil {
		return err
	}
	if err := readTable("selector", p.selector); err != nil {
		return err
	}
	history := r.U64()
	nbtb := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if nbtb != len(p.btb) {
		return fmt.Errorf("bpred: serialized BTB has %d entries, predictor has %d", nbtb, len(p.btb))
	}
	btb := r.Raw(nbtb * btbEntryBytes)
	nras := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	pairs, ranks := btb[:nbtb*btbPairBytes], btb[nbtb*btbPairBytes:]
	if err := binio.CheckRanks(ranks, p.cfg.BTBAssoc); err != nil {
		return fmt.Errorf("bpred: BTB: %w", err)
	}
	for i := range p.btb {
		rec := pairs[i*btbPairBytes:][:btbPairBytes]
		tag, target := binary.LittleEndian.Uint64(rec), int64(binary.LittleEndian.Uint64(rec[8:]))
		if ranks[i] == 0 {
			if tag != 0 || target != 0 {
				return binio.ErrCorrupt // no entry is ever invalidated, so an invalid one was never installed
			}
			p.btb[i] = btbEntry{}
			continue
		}
		p.btb[i] = btbEntry{valid: true, tag: tag, target: int(target), lru: int64(ranks[i])}
	}
	if nras > p.cfg.RASEntries {
		return fmt.Errorf("bpred: serialized RAS depth %d exceeds capacity %d", nras, p.cfg.RASEntries)
	}
	ras := r.Raw(nras * rasSlotBytes)
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("bpred: %d trailing bytes after predictor state", r.Remaining())
	}
	p.history = history
	p.ras = p.ras[:0]
	for i := 0; i < nras; i++ {
		p.ras = append(p.ras, int(int64(binary.LittleEndian.Uint64(ras[i*rasSlotBytes:]))))
	}
	p.tick = int64(p.cfg.BTBAssoc)
	p.Stats = Stats{}
	return nil
}
