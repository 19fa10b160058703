package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call into the program, recorded by the benchmark around
// the call. Spans of one picture share an id: (Session, Pic).
type span struct {
	Name       string
	Cat        string
	Start, End int64 // clock ns
	Session    int   // 0 outside any session
	Pic        int   // decode-order picture, -1 when not per picture
}

// tracer keeps spans in memory for the traced run and writes them as
// Chrome-trace JSON at exit. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	clk   clock
	mu    sync.Mutex
	spans []span
}

// begin returns the start stamp for a span (0 when not tracing).
func (tr *tracer) begin() int64 {
	if tr == nil {
		return 0
	}
	return tr.clk.now()
}

// end records a span that started at start.
func (tr *tracer) end(name, cat string, session, pic int, start int64) {
	if tr == nil {
		return
	}
	s := span{Name: name, Cat: cat, Start: start, End: tr.clk.now(), Session: session, Pic: pic}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// add records finished spans in bulk.
func (tr *tracer) add(ss ...span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, ss...)
	tr.mu.Unlock()
}

// total returns the summed duration (ns) and count of spans named name.
func (tr *tracer) total(name string) (int64, int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sum int64
	var n int
	for _, s := range tr.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// traceEvent is one Chrome-trace event (times in microseconds).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]int `json:"args,omitempty"`
}

// tileEvent is an instant event at an OnTileFrame call.
type tileEvent struct {
	At                 int64
	Session, Pic, Tile int
}

// write stores the spans plus the tile-frame instants as Chrome-trace JSON.
// Spans go on one row per session (tid = session), tile frames on one row
// per tile (tid = 1000 + tile).
func (tr *tracer) write(path string, tiles []tileEvent) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := ""
	emit := func(ev traceEvent) error {
		bw.WriteString(sep)
		sep = ","
		return enc.Encode(ev)
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	for _, s := range spans {
		args := map[string]int{"session": s.Session}
		if s.Pic >= 0 {
			args["picture"] = s.Pic
		}
		if err := emit(traceEvent{Name: s.Name, Cat: s.Cat, Ph: "X", TS: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: s.Session, Args: args}); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	for _, e := range tiles {
		if err := emit(traceEvent{Name: "OnTileFrame", Cat: "display", Ph: "i", Scope: "t", TS: float64(e.At) / 1e3,
			PID: 1, TID: 1000 + e.Tile, Args: map[string]int{"session": e.Session, "picture": e.Pic, "tile": e.Tile}}); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
