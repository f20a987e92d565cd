package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Series is an opt-in per-window metric timeline: at each sample instant
// the live (shard-local) registries are merged and every instrument's
// value is appended as one row, so scenario reports can show how a metric
// moved, not just where it ended. Sampling happens on the control plane at
// quiescent instants (coordinator barriers), so the values are
// deterministic per seed.
type Series struct {
	Period time.Duration `json:"period_ns"`
	// Names lists the instrument ids (name + rendered labels), fixed at
	// the first sample; Rows carry one value per name.
	Names []string    `json:"names"`
	Rows  []SeriesRow `json:"rows"`
}

// SeriesRow is one sample instant: counter/gauge values (histogram means)
// in Names order.
type SeriesRow struct {
	At   time.Duration `json:"at_ns"`
	Vals []float64     `json:"vals"`
}

// NewSeries returns an empty timeline with the given sampling period.
func NewSeries(period time.Duration) *Series { return &Series{Period: period} }

// Sample merges the live registries and appends one row. The first call
// fixes the instrument set; instruments registered later are ignored
// (registries pre-register everything up front, so in practice the set is
// stable).
func (s *Series) Sample(at time.Duration, regs []*Registry) {
	merged := NewRegistry()
	for _, r := range regs {
		if r != nil {
			merged.Merge(r)
		}
	}
	snap := merged.Snapshot()
	if s.Names == nil {
		s.Names = make([]string, len(snap.Metrics))
		for i, m := range snap.Metrics {
			s.Names[i] = m.Name + m.Labels
		}
	}
	row := SeriesRow{At: at, Vals: make([]float64, len(s.Names))}
	// Snapshot order is sorted by id and the instrument set is stable, so
	// positions normally line up; fall back to a scan if they ever drift.
	for i, name := range s.Names {
		if i < len(snap.Metrics) && snap.Metrics[i].Name+snap.Metrics[i].Labels == name {
			row.Vals[i] = snap.Metrics[i].Value
			continue
		}
		for _, m := range snap.Metrics {
			if m.Name+m.Labels == name {
				row.Vals[i] = m.Value
				break
			}
		}
	}
	s.Rows = append(s.Rows, row)
}

// WriteJSON emits the timeline as indented JSON.
func (s *Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
