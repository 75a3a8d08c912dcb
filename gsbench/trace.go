package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call recorded by the benchmark around a call into a
// layer. Spans of one request share req; parent is the enclosing span's id
// (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. It is used from one goroutine. A disabled
// tracer records nothing, which is how the traced replay measures its own
// overhead.
type tracer struct {
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// call records fn as a child span of parent.
func (t *tracer) call(name string, parent int32, req int64, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one parent run one after another on the tracer's
// goroutine, so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// validateSpans checks the span tree: every span ends after it starts,
// every parent precedes its children, belongs to the same request and
// encloses them.
func validateSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d %s has parent %d recorded after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Req != s.Req {
			return fmt.Errorf("span %d %s is in request %d, its parent in %d", s.ID, s.Name, s.Req, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] is not enclosed by parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// layerTotal is the summed self time and the count of the spans of one
// name.
type layerTotal struct {
	selfNs int64
	n      int
}

// totalsByName folds spans into per-name totals.
func totalsByName(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.selfNs += self[i]
		t.n++
		out[s.Name] = t
	}
	return out
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
