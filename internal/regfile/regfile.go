// Package regfile implements a banked physical register file with a
// rename map and a lowest-first free list. The paper's processor (table 1)
// has 112 integer and 112 floating-point physical registers arranged as 14
// banks of 8; banks holding no live register are gated off for static
// power, and the paper's technique shrinks the live-register population by
// throttling dispatch (section 5.2.3). Lowest-first allocation keeps live
// registers packed in the low banks so that reduced pressure actually
// empties banks, matching the banked organisations of Abella & González.
package regfile

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config sizes the file.
type Config struct {
	Regs     int // physical registers
	BankSize int
	ArchRegs int // architectural registers initially mapped and live
}

// DefaultConfig is the paper's integer register file: 112 regs in 14
// banks of 8, backing 32 architectural registers.
func DefaultConfig() Config { return Config{Regs: 112, BankSize: 8, ArchRegs: 32} }

// Stats accumulates power-relevant events.
type Stats struct {
	Reads      int64
	Writes     int64
	Allocs     int64
	AllocFails int64
	// Per-cycle samples via Tick.
	Cycles       int64
	LiveSum      int64
	BanksOnSum   int64
	BanksOnReads int64 // banks-on sample at each read, for access energy
}

// File is one physical register file.
type File struct {
	cfg       Config
	banks     int
	freeMask  []uint64 // bit set = free
	ready     []bool
	bankCount []int
	banksOn   int // banks with bankCount > 0
	live      int
	renameMap []int
	Stats     Stats
}

// New builds a file with the architectural registers mapped to physical
// 0..ArchRegs-1, all ready.
func New(cfg Config) (*File, error) {
	f := new(File)
	if err := f.Reset(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Reset configures the file for cfg and returns it to the state New
// builds, zero Stats included, keeping its storage wherever that is
// large enough. A bad geometry is an error and leaves the file as it
// was.
func (f *File) Reset(cfg Config) error {
	if cfg.Regs <= 0 || cfg.BankSize <= 0 || cfg.Regs%cfg.BankSize != 0 {
		return fmt.Errorf("regfile: bad geometry regs=%d bankSize=%d", cfg.Regs, cfg.BankSize)
	}
	if cfg.ArchRegs < 0 || cfg.ArchRegs > cfg.Regs {
		return fmt.Errorf("regfile: %d arch regs exceed %d physical", cfg.ArchRegs, cfg.Regs)
	}
	*f = File{
		cfg:       cfg,
		banks:     cfg.Regs / cfg.BankSize,
		freeMask:  zeroed(f.freeMask, (cfg.Regs+63)/64),
		ready:     zeroed(f.ready, cfg.Regs),
		bankCount: zeroed(f.bankCount, cfg.Regs/cfg.BankSize),
		renameMap: zeroed(f.renameMap, cfg.ArchRegs),
	}
	for r := 0; r < cfg.Regs; r++ {
		f.setFree(r, true)
	}
	for a := 0; a < cfg.ArchRegs; a++ {
		f.setFree(a, false)
		f.ready[a] = true
		if f.bankCount[a/cfg.BankSize] == 0 {
			f.banksOn++
		}
		f.bankCount[a/cfg.BankSize]++
		f.live++
		f.renameMap[a] = a
	}
	return nil
}

// zeroed returns s resized to n zero elements, in s's storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *File {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func (f *File) setFree(r int, free bool) {
	if free {
		f.freeMask[r/64] |= 1 << (r % 64)
	} else {
		f.freeMask[r/64] &^= 1 << (r % 64)
	}
}

// Capacity returns the physical register count.
func (f *File) Capacity() int { return f.cfg.Regs }

// Banks returns the bank count.
func (f *File) Banks() int { return f.banks }

// Live returns the number of allocated physical registers.
func (f *File) Live() int { return f.live }

// BanksOn returns the number of banks holding at least one live register.
// The count is maintained incrementally on allocate and free: it is read
// on every register access for the power accounting, so it must be O(1).
func (f *File) BanksOn() int { return f.banksOn }

// Allocate claims the lowest-numbered free register, not ready, and
// returns it; ok=false if none are free (a rename stall).
func (f *File) Allocate() (reg int, ok bool) {
	for w, mask := range f.freeMask {
		if mask == 0 {
			continue
		}
		r := w*64 + bits.TrailingZeros64(mask)
		if r >= f.cfg.Regs {
			break
		}
		f.setFree(r, false)
		f.ready[r] = false
		if f.bankCount[r/f.cfg.BankSize] == 0 {
			f.banksOn++
		}
		f.bankCount[r/f.cfg.BankSize]++
		f.live++
		f.Stats.Allocs++
		return r, true
	}
	f.Stats.AllocFails++
	return -1, false
}

// Free releases a register (at commit of the overwriting instruction).
func (f *File) Free(r int) {
	if r < 0 || r >= f.cfg.Regs {
		panic(fmt.Sprintf("regfile: free of bad register %d", r))
	}
	if f.isFree(r) {
		panic(fmt.Sprintf("regfile: double free of register %d", r))
	}
	f.setFree(r, true)
	f.ready[r] = false
	f.bankCount[r/f.cfg.BankSize]--
	if f.bankCount[r/f.cfg.BankSize] == 0 {
		f.banksOn--
	}
	f.live--
}

func (f *File) isFree(r int) bool { return f.freeMask[r/64]&(1<<(r%64)) != 0 }

// MarkReady records that the producer of r has written back.
func (f *File) MarkReady(r int) { f.ready[r] = true }

// IsReady reports whether the value in r is available.
func (f *File) IsReady(r int) bool { return f.ready[r] }

// Rename returns the current physical mapping of an architectural
// register.
func (f *File) Rename(arch int) int { return f.renameMap[arch] }

// SetRename installs a new mapping and returns the previous physical
// register (to be freed when the renaming instruction commits).
func (f *File) SetRename(arch, phys int) (prev int) {
	prev = f.renameMap[arch]
	f.renameMap[arch] = phys
	return prev
}

// Read counts a register read (at issue) with the current bank-on
// population, which scales access energy in the power model.
func (f *File) Read() {
	f.Stats.Reads++
	f.Stats.BanksOnReads += int64(f.BanksOn())
}

// Write counts a register write (at writeback).
func (f *File) Write() { f.Stats.Writes++ }

// Tick samples per-cycle occupancy statistics for n cycles over which the
// file does not change.
func (f *File) Tick(n int64) {
	f.Stats.Cycles += n
	f.Stats.LiveSum += n * int64(f.live)
	f.Stats.BanksOnSum += n * int64(f.banksOn)
}

// CheckInvariants recomputes derived state; tests call it after random
// operation sequences.
func (f *File) CheckInvariants() error {
	live := 0
	bank := make([]int, f.banks)
	for r := 0; r < f.cfg.Regs; r++ {
		if !f.isFree(r) {
			live++
			bank[r/f.cfg.BankSize]++
		}
	}
	if live != f.live {
		return fmt.Errorf("live %d != recomputed %d", f.live, live)
	}
	banksOn := 0
	for _, c := range f.bankCount {
		if c > 0 {
			banksOn++
		}
	}
	if banksOn != f.banksOn {
		return fmt.Errorf("banksOn %d != recomputed %d", f.banksOn, banksOn)
	}
	for b := range bank {
		if bank[b] != f.bankCount[b] {
			return fmt.Errorf("bank %d count %d != recomputed %d", b, f.bankCount[b], bank[b])
		}
	}
	seen := map[int]bool{}
	for a, p := range f.renameMap {
		if p < 0 || p >= f.cfg.Regs {
			return fmt.Errorf("arch %d maps to bad phys %d", a, p)
		}
		if f.isFree(p) {
			return fmt.Errorf("arch %d maps to free phys %d", a, p)
		}
		if seen[p] {
			return fmt.Errorf("phys %d mapped twice", p)
		}
		seen[p] = true
	}
	return nil
}
