package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteJSON exports the campaign — spec and results — as indented JSON.
// The output is deterministic for a deterministic ResultSet, so a
// cache-served re-run exports byte-identically to the run that populated
// the cache. A written campaign reloads with ReadJSON; figures can then
// be regenerated without re-simulating.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

// ReadJSON loads a campaign previously written by WriteJSON.
func ReadJSON(r io.Reader) (*ResultSet, error) {
	var rs ResultSet
	if err := json.NewDecoder(r).Decode(&rs); err != nil {
		return nil, fmt.Errorf("campaign: load: %w", err)
	}
	return NewResultSet(rs.Spec, rs.Results)
}

// NewResultSet returns stored results of spec (an export, a terminal
// record) as an indexed set, once every result names a known technique.
func NewResultSet(spec Spec, results []Result) (*ResultSet, error) {
	for i := range results {
		if !results[i].Tech.Valid() {
			return nil, fmt.Errorf("campaign: load: result %d has unknown technique %q", i, results[i].Tech)
		}
	}
	rs := &ResultSet{Spec: spec, Results: results}
	rs.reindex()
	return rs, nil
}

// csvEscape quotes a field if it contains CSV metacharacters.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// WriteCSV exports one row per result with the headline quantities the
// paper's figures plot, plus the baseline-relative metrics where the
// point's baseline run is present. Sampled campaigns append error-bar
// columns (the IPC confidence half-width, window count and measured
// fraction); exact campaigns emit exactly the historical columns, so
// their exports are byte-stable across the introduction of sampling.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cols := []string{
		"bench", "tech", "point",
		"cycles", "committed", "ipc",
		"iq_occupancy", "iq_banks_on",
		"hints", "hints_applied",
		"ipc_loss_pct", "occ_reduction_pct",
		"iq_dynamic_save_pct", "iq_static_save_pct",
		"rf_dynamic_save_pct", "rf_static_save_pct",
	}
	sampled := rs.Spec.Sampling != nil
	if sampled {
		cols = append(cols, "ipc_ci_half", "windows", "sampled_pct")
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := range rs.Results {
		r := &rs.Results[i]
		row := []string{
			csvEscape(r.Bench),
			csvEscape(string(r.Tech)),
			csvEscape(r.Point.String()),
			fmt.Sprintf("%d", r.Stats.Cycles),
			fmt.Sprintf("%d", r.Stats.CommittedReal),
			fmt.Sprintf("%.4f", r.Stats.IPC()),
			fmt.Sprintf("%.2f", r.Stats.AvgIQOccupancy()),
			fmt.Sprintf("%.2f", r.Stats.AvgIQBanksOn()),
			fmt.Sprintf("%d", r.Hints),
			fmt.Sprintf("%d", r.Stats.HintsApplied),
		}
		if _, ok := rs.Get(r.Bench, TechBaseline, r.Point); ok {
			sv, err := rs.Savings(r.Bench, r.Tech, r.Point)
			if err != nil {
				return err
			}
			row = append(row,
				fmt.Sprintf("%.3f", rs.IPCLossPct(r.Bench, r.Tech, r.Point)),
				fmt.Sprintf("%.3f", rs.OccupancyReductionPct(r.Bench, r.Tech, r.Point)),
				fmt.Sprintf("%.3f", sv.IQDynamicPct),
				fmt.Sprintf("%.3f", sv.IQStaticPct),
				fmt.Sprintf("%.3f", sv.RFDynamicPct),
				fmt.Sprintf("%.3f", sv.RFStaticPct),
			)
		} else {
			row = append(row, "", "", "", "", "", "")
		}
		if sampled {
			if r.Sampled != nil {
				frac := 0.0
				if r.Sampled.TotalInsts > 0 {
					frac = 100 * float64(r.Sampled.SampledInsts) / float64(r.Sampled.TotalInsts)
				}
				row = append(row,
					fmt.Sprintf("%.4f", r.Sampled.IPC.Half),
					fmt.Sprintf("%d", r.Sampled.Windows),
					fmt.Sprintf("%.2f", frac),
				)
			} else {
				row = append(row, "", "", "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
