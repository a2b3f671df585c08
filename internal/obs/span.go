package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of a query's lifecycle, forming a tree:
// the server opens a root span per submission and hangs queue-wait,
// plan, build, execute and finalize under it. Durations come from the
// host monotonic clock (time.Now carries a monotonic reading, so a
// wall-clock step never corrupts a span). Spans are safe for
// concurrent children/annotations; a span's own Start/End belong to
// the goroutine driving it.
//
// A tree is built on every query and read on few, so building one
// costs few allocations: a root and its first children are one block,
// a span's first child pointers and first note live in arrays inside
// it, and notes are formatted only when Render runs.
type Span struct {
	Name string

	mu       sync.Mutex
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
	notes    []note
	// spare is the unused rest of the block this span's children are
	// carved from; the first Child of a span with none allocates one.
	spare []Span
	kids  [spanBlock]*Span
	note0 [1]note
}

// spanBlock is how many spans one allocation carries: a root and its
// first children (a fast query's tree is a root and three), or a
// span's next children.
const spanBlock = 4

// note is one Annotate call, formatted when the tree is rendered.
type note struct {
	format string
	args   [2]any
	n      int
}

// NewSpan opens a root span starting now.
func NewSpan(name string) *Span {
	block := make([]Span, spanBlock)
	s := &block[0]
	s.init(name, block[1:])
	return s
}

func (s *Span) init(name string, spare []Span) {
	s.Name, s.start, s.spare = name, time.Now(), spare
	s.children, s.notes = s.kids[:0], s.note0[:0]
}

// Child opens and attaches a new child span starting now.
func (s *Span) Child(name string) *Span {
	s.mu.Lock()
	if len(s.spare) == 0 {
		s.spare = make([]Span, spanBlock)
	}
	c := &s.spare[0]
	s.spare = s.spare[1:]
	c.init(name, nil)
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Adopt attaches an existing span (e.g. a compile span tree produced
// elsewhere) as a child.
func (s *Span) Adopt(c *Span) {
	if c == nil {
		return
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span at the current monotonic time; it is
// idempotent.
func (s *Span) End() {
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SetDuration closes the span with an explicit duration — the form
// used for synthetic aggregated spans (e.g. one span per pool worker
// summing its morsel runtimes).
func (s *Span) SetDuration(d time.Duration) {
	s.mu.Lock()
	s.ended = true
	s.dur = d
	s.mu.Unlock()
}

// Duration is the span's length (the running duration if not ended).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Annotate appends a key=value style note rendered after the
// duration. The arguments are kept and formatted when Render runs, so
// pass values, not pointers to state that changes later.
func (s *Span) Annotate(format string, args ...any) {
	n := note{format: format, n: len(args)}
	if len(args) > len(n.args) {
		n = note{format: "%s", n: 1}
		args = []any{fmt.Sprintf(format, args...)}
	}
	copy(n.args[:], args)
	s.mu.Lock()
	s.notes = append(s.notes, n)
	s.mu.Unlock()
}

// Children snapshots the child list.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Find returns the first span named name in a depth-first walk (the
// receiver included), or nil.
func (s *Span) Find(name string) *Span {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children() {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Render formats the tree, one span per line, indented two spaces per
// level:
//
//	query 12.41ms
//	  queue-wait 0.03ms
//	  plan 0.21ms cache=miss
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	notes := append([]note(nil), s.notes...)
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s %.2fms", s.Name, float64(dur)/float64(time.Millisecond))
	for _, n := range notes {
		b.WriteByte(' ')
		fmt.Fprintf(b, n.format, n.args[:n.n]...)
	}
	b.WriteString("\n")
	for _, c := range kids {
		c.render(b, depth+1)
	}
}
