package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestConfigRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteConfig(&buf, sim.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IQ.Entries != 80 || cfg.ROBSize != 128 || cfg.FU.IntALU != 6 {
		t.Errorf("round trip lost fields: %+v", cfg)
	}
}

func TestConfigPartialOverride(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"ROBSize": 96, "IQ": {"Entries": 64, "BankSize": 8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ROBSize != 96 || cfg.IQ.Entries != 64 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	// Untouched fields keep defaults.
	if cfg.FetchWidth != 8 || cfg.IntRF.Regs != 112 {
		t.Errorf("defaults lost: %+v", cfg)
	}
}

func TestConfigRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"ROBSize": 0}`,
		`{"IQ": {"Entries": 10, "BankSize": 4}}`,
		`{"FetchWidth": -1}`,
		`{"IntRF": {"Regs": 8, "BankSize": 8, "ArchRegs": 32}}`,
		`{"NotAField": 1}`,
		`{bad json`,
	}
	for _, c := range cases {
		if _, err := LoadConfig(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid config %q", c)
		}
	}
}
