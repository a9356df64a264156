package trace

import (
	"encoding/json"
	"fmt"
)

// SchemaVersion is the version tag every serialized Result carries.
// Trace exports, orchload's -out file and the daemon's job status all
// embed Results, so the encoding is versioned explicitly: a reader checks the
// tag instead of guessing from field shapes, and old files fail loudly
// rather than decoding into zero values.
const SchemaVersion = 1

// resultJSON is the wire form of Result, schema version 1. Field names
// are part of the format; renaming one is a schema bump.
type resultJSON struct {
	Schema     int       `json:"schema"`
	Name       string    `json:"name"`
	Processors int       `json:"processors"`
	Unit       string    `json:"unit,omitempty"`
	Makespan   float64   `json:"makespan"`
	SeqTime    float64   `json:"seq_time"`
	Busy       []float64 `json:"busy,omitempty"`
	Chunks     int       `json:"chunks"`
	Steals     int       `json:"steals"`
	Messages   int       `json:"messages"`
	// The chain counters are omitempty: runs without cache chaining
	// (every simulator run, pre-chain files) encode byte-identically
	// to the original schema-1 form, so goldens and old BENCH files
	// stay valid without a schema bump.
	ChainHits      int `json:"chain_hits,omitempty"`
	ChainSpills    int `json:"chain_spills,omitempty"`
	ChainFallbacks int `json:"chain_fallbacks,omitempty"`
	// Likewise omitempty: only the dist backend measures real
	// inter-process communication, so sim/native files are unchanged.
	Comm      float64 `json:"comm,omitempty"`
	CommBytes int64   `json:"comm_bytes,omitempty"`
}

// MarshalJSON encodes the result in the versioned wire format.
func (r Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(resultJSON{
		Schema:     SchemaVersion,
		Name:       r.Name,
		Processors: r.Processors,
		Unit:       r.Unit,
		Makespan:   r.Makespan,
		SeqTime:    r.SeqTime,
		Busy:       r.Busy,
		Chunks:     r.Chunks,
		Steals:     r.Steals,
		Messages:   r.Messages,

		ChainHits:      r.ChainHits,
		ChainSpills:    r.ChainSpills,
		ChainFallbacks: r.ChainFallbacks,
		Comm:           r.Comm,
		CommBytes:      r.CommBytes,
	})
}

// UnmarshalJSON decodes the versioned wire format, rejecting unknown
// schema versions.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w resultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Schema != SchemaVersion {
		return fmt.Errorf("trace: result schema %d, want %d", w.Schema, SchemaVersion)
	}
	*r = Result{
		Name:       w.Name,
		Processors: w.Processors,
		Unit:       w.Unit,
		Makespan:   w.Makespan,
		SeqTime:    w.SeqTime,
		Busy:       w.Busy,
		Chunks:     w.Chunks,
		Steals:     w.Steals,
		Messages:   w.Messages,

		ChainHits:      w.ChainHits,
		ChainSpills:    w.ChainSpills,
		ChainFallbacks: w.ChainFallbacks,
		Comm:           w.Comm,
		CommBytes:      w.CommBytes,
	}
	return nil
}
