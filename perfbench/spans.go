package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// A span is one call into a layer, as the benchmark saw it from outside.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a repetition's root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

// spans records spans in memory; write saves them when the benchmark ends.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// start opens a span and returns its id.
func (s *spans) start(name string, parent int) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: time.Since(s.origin).Seconds()})
	return len(s.list)
}

// stop closes span id and returns its duration in seconds.
func (s *spans) stop(id int) float64 {
	sp := &s.list[id-1]
	sp.End = time.Since(s.origin).Seconds()
	return sp.End - sp.Start
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
